// Package tuple defines Purity's unit of persistence: the immutable fact
// (§3.2 of the paper). Every piece of metadata — medium-table rows, address
// mappings, dedup entries, segment state, elide predicates — is a fact: a
// row of unsigned integer columns (plus an optional byte blob for names and
// similar payloads) stamped with a globally unique sequence number.
//
// Facts are never updated in place. An overwrite is a new fact with a higher
// sequence number; a delete is an elide predicate (package elide) that is
// itself a fact. Because facts are immutable and sequence numbers total-order
// them, inserting a fact twice, replaying a stale fact from NVRAM, or
// re-scanning a segment during recovery are all harmless — recovery reduces
// to a set union (§4.3).
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Seq is a global sequence number. Sequence numbers are dense-ish, strictly
// increasing, and never reused (§4.10 relies on this to bound elide tables).
type Seq uint64

// MaxSeq is the largest representable sequence number.
const MaxSeq = Seq(^uint64(0))

// Schema describes the shape of facts in one relation.
type Schema struct {
	Cols    int  // number of uint64 columns
	KeyCols int  // the first KeyCols columns form the sort key
	HasBlob bool // whether facts carry a variable-length byte payload
}

// Validate checks that the schema is usable.
func (s Schema) Validate() error {
	if s.Cols <= 0 || s.KeyCols <= 0 || s.KeyCols > s.Cols {
		return fmt.Errorf("tuple: invalid schema %+v", s)
	}
	return nil
}

// Fact is one immutable tuple — an immutable fact in the sense of §3.2:
// once constructed it is never written through; an update is a new Fact
// with a higher Seq. (purity-lint's factmut rule enforces this.)
type Fact struct {
	Seq  Seq
	Cols []uint64
	Blob []byte // nil unless the schema has a blob
}

// CompareKeys lexicographically compares two column prefixes of length
// keyCols. It returns -1, 0, or +1.
func CompareKeys(a, b []uint64, keyCols int) int {
	for i := 0; i < keyCols; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Less orders facts by key ascending, then sequence number DESCENDING, so
// that iterating a sorted run yields the newest version of a key first —
// the order every LSM read path wants.
func Less(a, b Fact, keyCols int) bool {
	if c := CompareKeys(a.Cols, b.Cols, keyCols); c != 0 {
		return c < 0
	}
	return a.Seq > b.Seq
}

// Clone returns a deep copy of the fact.
func (f Fact) Clone() Fact {
	out := Fact{Seq: f.Seq, Cols: append([]uint64(nil), f.Cols...)}
	if f.Blob != nil {
		out.Blob = append([]byte(nil), f.Blob...)
	}
	return out
}

// --- Encoding ---------------------------------------------------------

// Facts are encoded as: uvarint seq, one uvarint per column, then (if the
// schema has a blob) uvarint length + bytes. This is the NVRAM commit-record
// and log-record wire form; pagecodec stores the same facts bit-packed.

// ErrTruncated is returned when decoding runs out of bytes.
var ErrTruncated = errors.New("tuple: truncated encoding")

// Append encodes f per schema s onto dst.
func Append(dst []byte, s Schema, f Fact) []byte {
	dst = binary.AppendUvarint(dst, uint64(f.Seq))
	for i := 0; i < s.Cols; i++ {
		dst = binary.AppendUvarint(dst, f.Cols[i])
	}
	if s.HasBlob {
		dst = binary.AppendUvarint(dst, uint64(len(f.Blob)))
		dst = append(dst, f.Blob...)
	}
	return dst
}

// Decode decodes one fact from src, returning it and the bytes consumed.
func Decode(src []byte, s Schema) (Fact, int, error) {
	pos := 0
	seq, n := binary.Uvarint(src[pos:])
	if n <= 0 {
		return Fact{}, 0, ErrTruncated
	}
	pos += n
	cols := make([]uint64, s.Cols)
	for i := range cols {
		v, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return Fact{}, 0, ErrTruncated
		}
		cols[i] = v
		pos += n
	}
	f := Fact{Seq: Seq(seq), Cols: cols}
	if s.HasBlob {
		bl, n := binary.Uvarint(src[pos:])
		if n <= 0 {
			return Fact{}, 0, ErrTruncated
		}
		pos += n
		if pos+int(bl) > len(src) {
			return Fact{}, 0, ErrTruncated
		}
		f.Blob = append([]byte(nil), src[pos:pos+int(bl)]...)
		pos += int(bl)
	}
	return f, pos, nil
}

// AppendBatch encodes a batch of facts: uvarint count then each fact.
func AppendBatch(dst []byte, s Schema, facts []Fact) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(facts)))
	for _, f := range facts {
		dst = Append(dst, s, f)
	}
	return dst
}

// DecodeBatch decodes a batch produced by AppendBatch.
func DecodeBatch(src []byte, s Schema) ([]Fact, int, error) {
	count, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, 0, ErrTruncated
	}
	pos := n
	facts := make([]Fact, 0, count)
	for i := uint64(0); i < count; i++ {
		f, n, err := Decode(src[pos:], s)
		if err != nil {
			return nil, 0, err
		}
		facts = append(facts, f)
		pos += n
	}
	return facts, pos, nil
}

// --- Sequence source ---------------------------------------------------

// SeqSource hands out sequence numbers. One SeqSource exists per array; it
// is the single point of (controlled) non-monotonicity in the system
// (§3.2: "sequence numbers... act as a controlled source of
// non-monotonicity").
type SeqSource struct {
	last atomic.Uint64
}

// NewSeqSource returns a source whose first Next() returns start+1.
func NewSeqSource(start Seq) *SeqSource {
	s := &SeqSource{}
	s.last.Store(uint64(start))
	return s
}

// Next returns the next sequence number.
func (s *SeqSource) Next() Seq { return Seq(s.last.Add(1)) }

// Current returns the most recently issued sequence number.
func (s *SeqSource) Current() Seq { return Seq(s.last.Load()) }

// AdvanceTo moves the source forward to at least seq. Recovery uses this to
// resume numbering past everything found in NVRAM and segments.
func (s *SeqSource) AdvanceTo(seq Seq) {
	for {
		cur := s.last.Load()
		if uint64(seq) <= cur || s.last.CompareAndSwap(cur, uint64(seq)) {
			return
		}
	}
}
