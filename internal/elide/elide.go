// Package elide implements Purity's predicate-based deletion (§4.10 of the
// paper). Instead of per-key tombstones, each relation has elide tables:
// inserting one elide record atomically deletes every tuple matching a
// predicate — e.g. "all address-map facts of medium 17" when a snapshot is
// dropped. Elide records are themselves immutable facts, so deletion is
// idempotent and needs no locking protocol.
//
// Readers filter matches out on the fly; the garbage collector and pyramid
// merges drop matching tuples immediately, reclaiming space without waiting
// for a tombstone to sink to the bottom level.
//
// Elide predicates are kept as ranges over one key column, and contiguous
// ranges collapse (the keys are dense, never-reused identifiers), so the
// table's size is bounded by the number of live tuples — it cannot leak.
package elide

import (
	"sort"

	"purity/internal/lockrank"
	"purity/internal/tuple"
)

// Predicate deletes every fact whose column Col lies in [Lo, Hi] and whose
// sequence number is ≤ MaxSeq. MaxSeq exists because elision must not
// swallow facts written *after* the deletion was issued (a medium ID is
// never reused, but bounded predicates keep recovery replays exact).
type Predicate struct {
	Col    int
	Lo, Hi uint64
	MaxSeq tuple.Watermark
}

// Matches reports whether the fact is deleted by this predicate.
func (p Predicate) Matches(f tuple.Fact) bool {
	if !p.MaxSeq.Covers(f.Seq) {
		return false
	}
	v := f.Cols[p.Col]
	return v >= p.Lo && v <= p.Hi
}

// Table is the in-memory materialization of one relation's elide table. It
// is rebuilt from the persisted elide relation at recovery and updated as
// new elide facts commit. Safe for concurrent use.
type Table struct {
	mu   lockrank.RWMutex[lockrank.ElideTableMu]
	cols map[int][]Predicate // per column, sorted by Lo, collapsed
}

// NewTable returns an empty elide table.
func NewTable() *Table {
	return &Table{cols: make(map[int][]Predicate)}
}

// Add inserts a predicate, collapsing it with adjacent or overlapping
// ranges that share the same MaxSeq. Adding the same predicate twice is a
// no-op (elision is idempotent).
func (t *Table) Add(p Predicate) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ranges := t.cols[p.Col]
	// Insert in Lo order.
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Lo >= p.Lo })
	ranges = append(ranges, Predicate{})
	copy(ranges[i+1:], ranges[i:])
	ranges[i] = p
	t.cols[p.Col] = collapse(ranges)
}

// collapse merges adjacent/overlapping ranges with equal MaxSeq. Ranges
// with different MaxSeq are kept separate (both still apply).
func collapse(ranges []Predicate) []Predicate {
	if len(ranges) <= 1 {
		return ranges
	}
	out := ranges[:1]
	for _, r := range ranges[1:] {
		last := &out[len(out)-1]
		if r.MaxSeq == last.MaxSeq && r.Lo <= last.Hi+1 && last.Hi+1 != 0 {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		// Exact duplicate span with different MaxSeq still matters; keep.
		out = append(out, r)
	}
	return out
}

// Elided reports whether the fact matches any predicate in the table.
func (t *Table) Elided(f tuple.Fact) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for col, ranges := range t.cols {
		if col >= len(f.Cols) {
			continue
		}
		v := f.Cols[col]
		// Ranges are sorted by Lo but may overlap when their MaxSeq differ,
		// so Hi is not monotone; bound the scan by Lo only.
		end := sort.Search(len(ranges), func(i int) bool { return ranges[i].Lo > v })
		for i := 0; i < end; i++ {
			if ranges[i].Matches(f) {
				return true
			}
		}
	}
	return false
}

// Ranges returns the collapsed predicates for a column, for persistence
// and for the size-bound experiment (E5).
func (t *Table) Ranges(col int) []Predicate {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Predicate(nil), t.cols[col]...)
}

// Len returns the total number of stored ranges across all columns. The
// paper's bound: this never exceeds the number of valid tuples.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.cols {
		n += len(r)
	}
	return n
}
