package pyramid

import (
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
	p        *Pyramid
	keys     []uint64
	hashes   []uint64     // hashes[i]: keys[i]'s keyHash, which every level's filter is asked with
	patches  []*Patch     // the patch list when the memtable was read
	mem      []tuple.Fact // mem[i]: keys[i]'s newest live memtable version (nil Cols: none)
	cols     []uint64     // the row a patch hit is decoded into
	filtered int          // keys the memtable's filter ruled out
}

// GetBatch reads the memtable for every key at once, into b, and readies b
// to probe the patches. It hashes each key once, and under mu in read mode
// (as memRun takes it) binary-searches every run for each key the
// memtable's filter does not rule out. A key's answer is its newest
// non-elided memtable version, ties going to the earlier insertion: the
// first live version in memRunLocked's order, which is what Get returns. It
// panics if the relation's key has more than one column: keys come from
// compiled-in schemas, so that is a caller bug.
func (p *Pyramid) GetBatch(b *Batch, keys []uint64) {
	if p.cfg.Schema.KeyCols != 1 {
		panic("pyramid: GetBatch takes single-column keys")
	}
	b.p, b.keys = p, keys
	b.mem = slices.Grow(b.mem[:0], len(keys))[:len(keys)]
	clear(b.mem)
	b.hashes = slices.Grow(b.hashes[:0], len(keys))[:len(keys)]
	for i := range keys {
		b.hashes[i] = keyHash(keys[i:i+1], 1)
	}
	b.filtered = 0

	p.mu.RLock()
	for i, key := range keys {
		if !p.memFilter.mayContain(b.hashes[i]) {
			b.filtered++
			continue
		}
		// A run holds a key's versions in (seq desc, insertion asc) order,
		// so its answer is the first live one; it replaces an older run's
		// only if strictly newer, so a tie stays with the earlier insertion.
		for r := range p.runEnds {
			run := p.run(r)
			for j := firstGE(run, keys[i:i+1], 1); j < len(run) && run[j].Cols[0] == key; j++ {
				if !p.elided(run[j]) {
					if cur := b.mem[i]; cur.Cols == nil || run[j].Seq > cur.Seq {
						b.mem[i] = run[j]
					}
					break
				}
			}
		}
	}
	b.patches = p.patches // copy-on-write: the header is the snapshot
	p.mu.RUnlock()
}

// Filtered returns how many of the last GetBatch's keys the memtable's
// filter ruled out, so that no run was searched for them.
func (b *Batch) Filtered() int { return b.filtered }

// Get returns keys[i]'s newest non-elided fact, as Pyramid.Get would have
// returned it when GetBatch read the memtable: the memtable's answer, or
// else the patch walk Get runs (getFromPatches), from at — the same pages
// opened in the same order, the same completion time. The fact is lent, as
// GetRow lends it, until the next Get.
func (b *Batch) Get(at sim.Time, i int) (tuple.Fact, bool, sim.Time, error) {
	if f := b.mem[i]; f.Cols != nil {
		return f, true, at, nil
	}
	b.cols = slices.Grow(b.cols[:0], b.p.cfg.Schema.Cols)[:b.p.cfg.Schema.Cols]
	return b.p.getFromPatches(at, b.patches, b.keys[i:i+1], b.hashes[i], b.cols)
}

// Reset drops what b points at — the caller's keys, memtable facts and the
// patch list — keeping its buffers.
func (b *Batch) Reset() {
	clear(b.mem)
	*b = Batch{mem: b.mem[:0], hashes: b.hashes[:0], cols: b.cols[:0]}
}
