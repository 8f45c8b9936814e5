package pyramid

import (
	"math/bits"
	"slices"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// Batch is an exact lookup of many keys of a relation whose key is one
// column (the dedup index and the volume catalog are). GetBatch reads the
// memtable once for all of them; Batch.Get then answers one key at a time,
// probing the patches only for a key the memtable did not answer, when the
// caller asks. The write path's duplicate search is its user: it looks up
// every block hash of an extent, in sector order, and stops at the first
// that verifies, so a patch probe it never asks for costs nothing.
//
// The zero Batch is ready to use, and keeps its buffers from one GetBatch
// to the next. One goroutine uses a Batch at a time.
type Batch struct {
	p       *Pyramid
	keys    []uint64
	patches []*Patch // the patch list when the memtable was read
	// table is the keys as an open-addressed set: each used slot holds the
	// index in keys of a key's first occurrence (-1: empty). first[i] is
	// that index for keys[i], and mem at it is keys[i]'s newest live
	// memtable version (nil Cols: none).
	table []int32
	shift uint // 64 - log2(len(table))
	first []int
	mem   []tuple.Fact
	cols  []uint64 // the row a patch hit is decoded into
}

// GetBatch reads the memtable for every key at once, into b, and readies b
// to probe the patches. Under mu in read mode (as memRun takes it) it
// binary-searches the memtable's sorted prefix once per distinct key, with
// no closure, and looks each fact of the unsorted suffix up in a small hash
// set of the keys, so the suffix is read once per batch rather than once
// per key. A key's answer is its newest non-elided memtable version, ties
// going to the prefix and then to the earlier insertion: the first live
// version in memRunLocked's order, which is what Get returns. It panics if
// the relation's key has more than one column: keys come from compiled-in
// schemas, so that is a caller bug.
func (p *Pyramid) GetBatch(b *Batch, keys []uint64) {
	if p.cfg.Schema.KeyCols != 1 {
		panic("pyramid: GetBatch takes single-column keys")
	}
	b.p, b.keys = p, keys
	size := 2
	for size < 2*len(keys) { // at most half full
		size *= 2
	}
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	b.table = slices.Grow(b.table[:0], size)[:size]
	for i := range b.table {
		b.table[i] = -1
	}
	b.first = b.first[:0]
	for i, key := range keys {
		s := b.find(key)
		if b.table[s] < 0 {
			b.table[s] = int32(i)
		}
		b.first = append(b.first, int(b.table[s]))
	}
	b.mem = slices.Grow(b.mem[:0], len(keys))[:len(keys)]
	clear(b.mem)

	p.mu.RLock()
	if len(p.mem)-p.sortedLen > memSuffixMax {
		p.mu.RUnlock()
		p.mu.Lock()
		p.sortMemLocked()
		p.mu.Unlock()
		p.mu.RLock()
	}
	prefix, suffix := p.mem[:p.sortedLen], p.mem[p.sortedLen:]
	// The prefix is in (key asc, seq desc, insertion asc) order, so a key's
	// answer there is the first live row of its run.
	for i, key := range keys {
		if b.first[i] != i {
			continue
		}
		for r := firstFactGE(prefix, key); r < len(prefix) && prefix[r].Cols[0] == key; r++ {
			if !p.elided(prefix[r]) {
				b.mem[i] = prefix[r]
				break
			}
		}
	}
	// The suffix, in insertion order: a version replaces a key's answer
	// only if strictly newer, so a tie stays with the prefix or the
	// earlier insertion.
	for _, f := range suffix {
		i := b.table[b.find(f.Cols[0])]
		if i < 0 {
			continue
		}
		if cur := b.mem[i]; (cur.Cols == nil || f.Seq > cur.Seq) && !p.elided(f) {
			b.mem[i] = f
		}
	}
	b.patches = p.patches // copy-on-write: the header is the snapshot
	p.mu.RUnlock()
}

// find returns the slot of table holding key, or the empty slot that ends
// its probe sequence. The home slot is a Fibonacci hash of the key, which
// spreads the dedup index's hashes and the catalog's small integers alike.
func (b *Batch) find(key uint64) int {
	mask := len(b.table) - 1
	s := int(key * 0x9E3779B97F4A7C15 >> b.shift)
	for b.table[s] >= 0 && b.keys[b.table[s]] != key {
		s = (s + 1) & mask
	}
	return s
}

// firstFactGE returns the first row of run whose key is ≥ key: a binary
// search on column 0, run being in key order.
func firstFactGE(run []tuple.Fact, key uint64) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].Cols[0] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns keys[i]'s newest non-elided fact, as Pyramid.Get would have
// returned it when GetBatch read the memtable: the memtable's answer, or
// else the patch walk Get runs (getFromPatches), from at — the same pages
// opened in the same order, the same completion time. The fact is lent, as
// GetRow lends it, until the next Get.
func (b *Batch) Get(at sim.Time, i int) (tuple.Fact, bool, sim.Time, error) {
	if f := b.mem[b.first[i]]; f.Cols != nil {
		return f, true, at, nil
	}
	b.cols = slices.Grow(b.cols[:0], b.p.cfg.Schema.Cols)[:b.p.cfg.Schema.Cols]
	return b.p.getFromPatches(at, b.patches, b.keys[i:i+1], b.cols)
}

// Reset drops what b points at — the caller's keys, memtable facts and the
// patch list — keeping its buffers.
func (b *Batch) Reset() {
	clear(b.mem)
	*b = Batch{table: b.table[:0], first: b.first[:0], mem: b.mem[:0], cols: b.cols[:0]}
}
