// Package pagecodec implements Purity's compressed metadata page format
// (§4.9 of the paper). Each page has a dictionary header with, per field,
// a set of bases and an offset width; a tuple value v = bx + o is encoded
// as (x, o). Fields that are constant across the page take zero bits, and
// every row has the same bit width, so a page can be scanned for a value by
// comparing bit patterns at fixed strides — without decompressing tuples.
//
// Pages carry facts (package tuple): the sequence number is stored as an
// extra dictionary-compressed column, and blob payloads (when the schema
// has them) live in a raw area addressed by a compressed length column.
package pagecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"purity/internal/tuple"
)

const (
	magic   = 0x5050 // "PP"
	version = 1

	flagHasBlob = 0x01
)

// maxRows is the most rows a page may hold. Encode refuses more and Open
// rejects a header that declares more: rows that take no bits cost no
// bytes, so only this bound keeps a damaged four-byte count from sizing
// the key cache at billions of rows.
const maxRows = 1 << 16

// Errors returned by Open.
var (
	ErrCorrupt  = errors.New("pagecodec: corrupt page")
	ErrChecksum = errors.New("pagecodec: checksum mismatch")
	ErrSchema   = errors.New("pagecodec: page does not match schema")
)

// Encode builds a page from facts, which must all match schema s. Facts are
// stored in the order given; relations sort them (key asc, seq desc) before
// encoding so pages support binary search.
func Encode(s tuple.Schema, facts []tuple.Fact) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(facts) > maxRows {
		return nil, fmt.Errorf("pagecodec: %d facts exceed a page's %d rows", len(facts), maxRows)
	}
	totalCols := s.Cols + 1 // + seq column
	if s.HasBlob {
		totalCols++ // + blob length column
	}

	// Gather column values (one backing array for all columns).
	backing := make([]uint64, totalCols*len(facts))
	colVals := make([][]uint64, totalCols)
	for c := range colVals {
		colVals[c] = backing[c*len(facts) : (c+1)*len(facts) : (c+1)*len(facts)]
	}
	var blobBytes int
	for i, f := range facts {
		if len(f.Cols) != s.Cols {
			return nil, fmt.Errorf("pagecodec: fact %d has %d cols, schema wants %d", i, len(f.Cols), s.Cols)
		}
		for c := 0; c < s.Cols; c++ {
			colVals[c][i] = f.Cols[c]
		}
		colVals[s.Cols][i] = uint64(f.Seq)
		if s.HasBlob {
			colVals[s.Cols+1][i] = uint64(len(f.Blob))
			blobBytes += len(f.Blob)
		}
	}

	dicts := make([]dict, totalCols)
	for c := range dicts {
		dicts[c] = buildDict(colVals[c])
	}

	// Header. The final size is known once the dictionaries are chosen, so
	// the output is allocated exactly once.
	headerLen := 12
	var rowBits uint
	for _, d := range dicts {
		headerLen += 3 + 8*len(d.bases)
		rowBits += d.rowBits()
	}
	rowBytes := int((uint64(len(facts))*uint64(rowBits) + 7) / 8)
	out := make([]byte, 0, headerLen+rowBytes+blobBytes+4)
	out = binary.LittleEndian.AppendUint16(out, magic)
	out = append(out, version)
	flags := byte(0)
	if s.HasBlob {
		flags |= flagHasBlob
	}
	out = append(out, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(facts)))
	out = append(out, byte(s.Cols), byte(s.KeyCols), 0, 0)
	for _, d := range dicts {
		out = append(out, byte(d.width))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(d.bases)))
		for _, b := range d.bases {
			out = binary.LittleEndian.AppendUint64(out, b)
		}
	}

	// Packed rows.
	w := bitWriter{buf: make([]byte, 0, rowBytes+1)}
	for i := range facts {
		for c := 0; c < totalCols; c++ {
			x, o, ok := dicts[c].encode(colVals[c][i])
			if !ok {
				return nil, fmt.Errorf("pagecodec: column %d value %d not encodable", c, colVals[c][i])
			}
			w.write(uint64(x), dicts[c].indexBits())
			w.write(o, dicts[c].width)
		}
	}
	out = append(out, w.finish()...)

	// Blob area.
	if s.HasBlob {
		for _, f := range facts {
			out = append(out, f.Blob...)
		}
	}

	// Trailing CRC over everything before it.
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out, nil
}

// Page is a decoded view over an encoded page. It keeps the raw bytes and
// parsed dictionaries; rows decode on demand.
type Page struct {
	schema    tuple.Schema
	raw       []byte
	dicts     []dict
	rowCount  int
	totalCols int
	rowBits   uint
	bitsOff   int    // byte offset of packed rows
	blobOff   int    // byte offset of blob area (0 if no blobs)
	colShift  []uint // bit offset of each column within a row

	// Key lookups bit-decode the same rows over and over (binary searches
	// probe log n rows per call, and pages are cached across calls), so the
	// key columns are materialized once on first use. Pages are immutable;
	// the Once makes the lazy build safe for concurrent readers.
	keysOnce sync.Once
	keys     []uint64 // rowCount × KeyCols, row-major
}

// keyCache decodes all key columns on first use.
func (p *Page) keyCache() []uint64 {
	p.keysOnce.Do(func() {
		k := p.schema.KeyCols
		keys := make([]uint64, p.rowCount*k)
		for i := 0; i < p.rowCount; i++ {
			for c := 0; c < k; c++ {
				keys[i*k+c] = p.col(i, c)
			}
		}
		p.keys = keys
	})
	return p.keys
}

// Open parses and validates an encoded page.
func Open(s tuple.Schema, raw []byte) (*Page, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(raw) < 16 {
		return nil, ErrCorrupt
	}
	if !ChecksumOK(raw) {
		return nil, ErrChecksum
	}
	body := raw[:len(raw)-4]
	if binary.LittleEndian.Uint16(raw) != magic || raw[2] != version {
		return nil, ErrCorrupt
	}
	hasBlob := raw[3]&flagHasBlob != 0
	rowCount := int(binary.LittleEndian.Uint32(raw[4:]))
	if rowCount > maxRows {
		return nil, ErrCorrupt
	}
	cols, keyCols := int(raw[8]), int(raw[9])
	if cols != s.Cols || keyCols != s.KeyCols || hasBlob != s.HasBlob {
		return nil, ErrSchema
	}
	totalCols := cols + 1
	if hasBlob {
		totalCols++
	}

	p := &Page{schema: s, raw: raw, rowCount: rowCount, totalCols: totalCols}
	pos := 12
	p.dicts = make([]dict, totalCols)
	p.colShift = make([]uint, totalCols)
	for c := 0; c < totalCols; c++ {
		if pos+3 > len(body) {
			return nil, ErrCorrupt
		}
		width := uint(raw[pos])
		baseCount := int(binary.LittleEndian.Uint16(raw[pos+1:]))
		pos += 3
		if width > 64 || baseCount == 0 || pos+8*baseCount > len(body) {
			return nil, ErrCorrupt
		}
		// Every index the row bits can hold names a base: past the
		// encoded ones (an index no encoder writes) the last repeats, so
		// a damaged page whose checksum still matched decodes to wrong
		// values instead of panicking.
		bases := make([]uint64, 1<<bitsFor(baseCount))
		for i := range bases[:baseCount] {
			bases[i] = binary.LittleEndian.Uint64(raw[pos:])
			pos += 8
		}
		for i := baseCount; i < len(bases); i++ {
			bases[i] = bases[baseCount-1]
		}
		p.dicts[c] = dict{width: width, bases: bases}
		p.colShift[c] = p.rowBits
		p.rowBits += p.dicts[c].rowBits()
	}
	p.bitsOff = pos
	rowBytes := (uint64(rowCount)*uint64(p.rowBits) + 7) / 8
	if uint64(pos)+rowBytes > uint64(len(body)) {
		return nil, ErrCorrupt
	}
	if hasBlob {
		// The blob lengths must fit the blob area, or a row's blob would
		// slice past it.
		p.blobOff = pos + int(rowBytes)
		room := uint64(len(body) - p.blobOff)
		if lens := p.dicts[cols+1]; lens.rowBits() == 0 {
			// One length for every row, and no row bits to bound the rows.
			if n := lens.bases[0]; n > 0 && uint64(rowCount) > room/n {
				return nil, ErrCorrupt
			}
		} else {
			for i := 0; i < rowCount; i++ {
				n := p.col(i, cols+1)
				if n > room {
					return nil, ErrCorrupt
				}
				room -= n
			}
		}
	}
	return p, nil
}

// ChecksumOK reports whether raw ends in the CRC of the bytes before it:
// the end-to-end check of a page read back from a segment.
func ChecksumOK(raw []byte) bool {
	n := len(raw) - 4
	return n >= 0 && crc32.ChecksumIEEE(raw[:n]) == binary.LittleEndian.Uint32(raw[n:])
}

// Verify re-checks the page's checksum over the bytes it decodes from, which
// Open checked once. Borrowed rows alias those bytes, so a write through
// one would show here.
func (p *Page) Verify() error {
	if !ChecksumOK(p.raw) {
		return ErrChecksum
	}
	return nil
}

// RowCount returns the number of facts in the page.
func (p *Page) RowCount() int { return p.rowCount }

// col reads column c of row i.
func (p *Page) col(i, c int) uint64 {
	d := p.dicts[c]
	off := uint64(p.bitsOff)*8 + uint64(i)*uint64(p.rowBits) + uint64(p.colShift[c])
	x := readBits(p.raw, off, d.indexBits())
	o := readBits(p.raw, off+uint64(d.indexBits()), d.width)
	return d.decode(int(x), o)
}

// Seq returns the sequence number of row i.
func (p *Page) Seq(i int) tuple.Seq { return tuple.Seq(p.col(i, p.schema.Cols)) }

// Keys returns the decoded key columns of every row, row-major
// (RowCount × KeyCols). The slice is shared; callers must not modify it.
func (p *Page) Keys() []uint64 { return p.keyCache() }

// Row decodes row i into cols, which must have room for the schema's
// columns, and returns it as a fact whose Cols is cols[:Cols]. Its Blob is a
// capped subslice of the page's bytes: a borrowed row, valid as long as the
// caller's buffer is and never written through (pages are immutable, and
// the page cache shares them between readers).
func (p *Page) Row(i int, cols []uint64) tuple.Fact {
	cols = cols[:p.schema.Cols]
	for c := range cols {
		cols[c] = p.col(i, c)
	}
	f := tuple.Fact{Seq: p.Seq(i), Cols: cols}
	if p.schema.HasBlob {
		// Blob offsets are the running sum of prior blob lengths.
		lenCol := p.schema.Cols + 1
		var start uint64
		for j := 0; j < i; j++ {
			start += p.col(j, lenCol)
		}
		f.Blob = p.blob(start, p.col(i, lenCol))
	}
	return f
}

// blob returns the n blob-area bytes at start, capped so an append cannot
// reach the next row's; nil when n is 0, as a decoded empty blob always was.
func (p *Page) blob(start, n uint64) []byte {
	if n == 0 {
		return nil
	}
	lo, hi := p.blobOff+int(start), p.blobOff+int(start+n)
	return p.raw[lo:hi:hi]
}

// All decodes every fact in the page. Patch merges and scans decode whole
// pages at a time, so rows are decoded column-major: constant columns
// (zero row bits — the common case for class and length fields) are filled
// without touching the bit stream, and the rest walk it at a fixed stride.
// The facts' Cols share one backing array that belongs to the caller, and
// each Blob is a capped subslice of the page's bytes, as Row's is: nobody
// writes through either. A merge keeps these facts as they are until the
// merged patch is encoded; a scan lends them to its visitor.
func (p *Page) All() []tuple.Fact {
	n := p.rowCount
	cols := p.schema.Cols
	out := make([]tuple.Fact, n)
	backing := make([]uint64, n*cols)
	stride := uint64(p.rowBits)
	colVal := func(c int, set func(i int, v uint64)) {
		d := p.dicts[c]
		ib, w := d.indexBits(), d.width
		if ib == 0 && w == 0 {
			v := d.bases[0]
			for i := 0; i < n; i++ {
				set(i, v)
			}
			return
		}
		off := uint64(p.bitsOff)*8 + uint64(p.colShift[c])
		for i := 0; i < n; i++ {
			x := readBits(p.raw, off, ib)
			o := readBits(p.raw, off+uint64(ib), w)
			set(i, d.decode(int(x), o))
			off += stride
		}
	}
	for c := 0; c < cols; c++ {
		c := c
		colVal(c, func(i int, v uint64) { backing[i*cols+c] = v })
	}
	colVal(cols, func(i int, v uint64) { out[i].Seq = tuple.Seq(v) })
	for i := range out {
		out[i].Cols = backing[i*cols : (i+1)*cols : (i+1)*cols]
	}
	if p.schema.HasBlob {
		lenCol := cols + 1
		lens := make([]uint64, n)
		colVal(lenCol, func(i int, v uint64) { lens[i] = v })
		var start uint64
		for i := 0; i < n; i++ {
			out[i].Blob = p.blob(start, lens[i])
			start += lens[i]
		}
	}
	return out
}

// FirstGE returns the index of the first row whose key is ≥ key, assuming
// rows are sorted by key ascending. Returns RowCount if all keys are less.
func (p *Page) FirstGE(key []uint64) int {
	k := p.schema.KeyCols
	keys := p.keyCache()
	if k == 1 {
		key0 := key[0]
		lo, hi := 0, p.rowCount
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[mid] < key0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	return sort.Search(p.rowCount, func(i int) bool {
		return tuple.CompareKeys(keys[i*k:(i+1)*k], key, k) >= 0
	})
}
