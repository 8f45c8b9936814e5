package pyramid

import (
	"purity/internal/sim"
	"purity/internal/tuple"
)

// MergeStep merges the two oldest sequence-contiguous patches into one,
// dropping elided facts immediately (§4.10) and same-key versions shadowed
// within the merged range. It reports whether a merge happened.
//
// Merge and flatten are idempotent: the merged patch's sequence range is
// the union of its inputs, so if a crash leaves both the inputs and the
// output discoverable, recovery's AddPatch keeps exactly one of them.
func (p *Pyramid) MergeStep(at sim.Time) (bool, sim.Time, error) {
	p.mu.RLock()
	patches := p.patches // copy-on-write: the header is the snapshot
	p.mu.RUnlock()
	if len(patches) < 2 {
		return false, at, nil
	}
	// patches is SeqHi-descending and sequence ranges are disjoint, so the
	// two oldest are the last two.
	older, newer := patches[len(patches)-1], patches[len(patches)-2]
	if older.SeqHi+1 != newer.SeqLo {
		// Non-contiguous (should not happen in normal operation); merging
		// would misdeclare coverage of the gap.
		return false, at, nil
	}
	// A crash anywhere in the merge leaves the input patches authoritative;
	// partially-written output pages are orphaned garbage.
	p.cfg.Crash.Hit("pyramid.merge.begin")
	merged, done, err := p.mergePatches(at, older, newer)
	if err != nil {
		return false, done, err
	}
	p.mu.Lock()
	p.installPatchLocked(merged) // containment drops both inputs
	p.mu.Unlock()
	return true, done, nil
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
// possible). The engine calls this from its background loop.
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
