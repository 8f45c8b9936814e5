package pyramid

import (
	"purity/internal/sim"
	"purity/internal/tuple"
)

// MergeStep merges one pair of sequence-adjacent patches into one, dropping
// elided facts immediately (§4.10) and same-key versions shadowed within the
// merged range. It reports whether a merge happened.
//
// The pair is the one with the fewest rows between them, the older pair on a
// tie: a large patch is rewritten only once a neighbour has grown to match
// it, not at every flush past the cap. While a patch holding rows has no key
// filter (one decoded from its descriptor at recovery), pairs holding such a
// patch come first, so every merge rebuilds at least one filter until none
// is missing.
//
// Any adjacent pair is safe to merge: the output's sequence range is exactly
// its inputs' union, so the patch list stays disjoint and ordered; a version
// dropped as shadowed is covered by a newer one in the same range, which
// hides it from every lookup whatever the other patches hold; and elision
// drops only facts every lookup already skips.
//
// Merge and flatten are idempotent: the merged patch's sequence range is
// the union of its inputs, so if a crash leaves both the inputs and the
// output discoverable, recovery's AddPatch keeps exactly one of them.
func (p *Pyramid) MergeStep(at sim.Time) (bool, sim.Time, error) {
	p.mu.RLock()
	patches := p.patches // copy-on-write: the header is the snapshot
	p.mu.RUnlock()
	i := mergePair(patches)
	if i < 0 {
		return false, at, nil
	}
	older, newer := patches[i+1], patches[i]
	// A crash anywhere in the merge leaves the input patches authoritative;
	// partially-written output pages are orphaned garbage.
	p.cfg.Crash.Hit("pyramid.merge.begin")
	merged, done, err := p.mergePatches(at, older, newer)
	if err != nil {
		return false, done, err
	}
	p.mergeRows.Add(int64(older.Rows + newer.Rows))
	p.mu.Lock()
	p.installPatchLocked(merged) // containment drops both inputs
	p.mu.Unlock()
	return true, done, nil
}

// mergePair returns the index i of the pair MergeStep merges, patches[i+1]
// into patches[i] (the list is newest first), or -1 when no two patches are
// sequence-contiguous. A gap (which normal operation never leaves) is not
// merged across: the output would misdeclare coverage of it.
func mergePair(patches []*Patch) int {
	best, bestRows, bestRefilter := -1, 0, false
	for i := len(patches) - 2; i >= 0; i-- { // oldest pair first
		older, newer := patches[i+1], patches[i]
		if older.SeqHi+1 != newer.SeqLo {
			continue
		}
		rows := older.Rows + newer.Rows
		refilter := older.unfiltered() || newer.unfiltered()
		if best < 0 || refilter && !bestRefilter || refilter == bestRefilter && rows < bestRows {
			best, bestRows, bestRefilter = i, rows, refilter
		}
	}
	return best
}

// mergePatches produces (and persists) the union patch of a and b.
func (p *Pyramid) mergePatches(at sim.Time, a, b *Patch) (*Patch, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	// Unbounded streams: a merge reads every row, so pages decode whole.
	sa, sb := newPatchSource(p, a, nil, nil), newPatchSource(p, b, nil, nil)
	var err error
	if done, err = sa.settle(done); err != nil {
		return nil, done, err
	}
	if done, err = sb.settle(done); err != nil {
		return nil, done, err
	}

	out := make([]tuple.Fact, 0, a.Rows+b.Rows)
	var lastKey []uint64
	var keptNewer []tuple.Fact // kept versions of the current key, newest first
	haveKey := false
	emit := func(f tuple.Fact) {
		if p.elided(f) {
			return // deleted: dropped immediately, space reclaimed
		}
		if haveKey && tuple.CompareKeys(f.Cols, lastKey, k) == 0 {
			if p.cfg.Shadowed == nil || p.cfg.Shadowed(f, keptNewer) {
				return // shadowed by newer versions already in the output
			}
		} else {
			lastKey = append(lastKey[:0], f.Cols[:k]...)
			haveKey = true
			keptNewer = keptNewer[:0]
		}
		keptNewer = append(keptNewer, f)
		// f is this merge's own: a whole-page decode no one else holds,
		// read until writePatch has encoded out, which copies only KeyMin.
		out = append(out, f)
	}
	for {
		fa, oka := sa.peek()
		fb, okb := sb.peek()
		switch {
		case !oka && !okb:
			lo, hi := a.SeqLo, b.SeqHi
			if b.SeqLo < lo {
				lo = b.SeqLo
			}
			if a.SeqHi > hi {
				hi = a.SeqHi
			}
			merged, d, err := p.writePatch(done, out, lo, hi)
			return merged, d, err
		case !okb || (oka && tuple.Less(fa, fb, k)):
			emit(fa)
			if done, err = sa.advance(done); err != nil {
				return nil, done, err
			}
		default:
			emit(fb)
			if done, err = sb.advance(done); err != nil {
				return nil, done, err
			}
		}
	}
}

// Maintain runs merge steps until at most maxPatches remain (or no merge is
// possible). The engine calls this from its background step and at
// checkpoints, after their flushes, so a patch recovered without a key
// filter is merged into one that has it within maxPatches flushes (see
// MergeStep).
//
// The cap bounds the patches a lookup visits, not the work: with a fixed
// cap and nothing dropped, any merge rule rewrites a fact a number of times
// that grows with the pyramid. Smallest-pair grows it about 8× slower than
// oldest-first — at 1,000 equal flushes under a cap of 6, 62.7 rows merged
// per row flushed against 495.5.
func (p *Pyramid) Maintain(at sim.Time, maxPatches int) (sim.Time, error) {
	done := at
	for {
		p.mu.RLock()
		n := len(p.patches)
		p.mu.RUnlock()
		if n <= maxPatches {
			return done, nil
		}
		merged, d, err := p.MergeStep(done)
		done = d
		if err != nil {
			return done, err
		}
		if !merged {
			return done, nil
		}
	}
}

// Rows returns the total persisted row count across patches (shadowed and
// elided rows included until a merge drops them) plus memtable rows.
func (p *Pyramid) Rows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := len(p.mem)
	for _, patch := range p.patches {
		n += patch.Rows
	}
	return n
}
