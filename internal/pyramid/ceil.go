package pyramid

import (
	"sort"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// GetCeil is the mirror of GetFloor: the newest non-elided fact whose key is
// prefix++[c] with the smallest c ≥ col. The read path uses it to bound a
// gap — "how far until the next address-map entry shadows the underlying
// medium".
func (p *Pyramid) GetCeil(at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	// Programmer-error guard, not data validation: prefixes are built by
	// engine code from compiled-in schemas, never from on-disk or replayed
	// bytes, so a mismatch here is a caller bug and panicking is correct.
	// (Contrast Insert's SchemaError, which IS reachable from corrupt data.)
	if len(prefix)+1 != p.cfg.Schema.KeyCols {
		panic("pyramid: GetCeil prefix must cover all but the last key column")
	}
	done := at
	keyCols := p.cfg.Schema.KeyCols
	// The target key and two rows: each patch's candidate is decoded into
	// cand, and a candidate that wins is copied into bestCols, since the
	// next patch decodes over cand.
	var tkBuf, candBuf, bestBuf [stackCols]uint64
	tk := append(append(tkBuf[:0], prefix...), col)
	cand := rowBuf(candBuf[:], p.cfg.Schema.Cols)
	bestCols := rowBuf(bestBuf[:], p.cfg.Schema.Cols)

	for {
		// As in GetFloor: the memtable's candidate and the patch list are
		// one snapshot; the global ceiling is the least candidate key, its
		// newest version the max-seq fact among sources reporting it.
		p.mu.Lock()
		p.sortMemLocked()
		best, found := ceilInMem(p.mem, tk, len(prefix))
		patches := p.patches
		p.mu.Unlock()

		for _, patch := range patches {
			f, ok, d, err := p.ceilInPatch(done, patch, tk, len(prefix), cand)
			done = d
			if err != nil {
				return tuple.Fact{}, false, done, err
			}
			if !ok {
				continue
			}
			if found {
				if c := tuple.CompareKeys(f.Cols, best.Cols, keyCols); c > 0 || (c == 0 && f.Seq <= best.Seq) {
					continue
				}
			}
			copy(bestCols, f.Cols)
			best, found = tuple.Fact{Seq: f.Seq, Cols: bestCols, Blob: f.Blob}, true
		}
		if !found {
			return tuple.Fact{}, false, done, nil
		}
		if !p.elided(best) {
			return best.Clone(), true, done, nil
		}
		c := best.Cols[keyCols-1]
		if c == ^uint64(0) {
			return tuple.Fact{}, false, done, nil
		}
		tk[keyCols-1] = c + 1
	}
}

func ceilInMem(mem []tuple.Fact, tk []uint64, prefixLen int) (tuple.Fact, bool) {
	keyCols := len(tk)
	idx := sort.Search(len(mem), func(i int) bool {
		return tuple.CompareKeys(mem[i].Cols, tk, keyCols) >= 0
	})
	if idx == len(mem) {
		return tuple.Fact{}, false
	}
	cand := mem[idx]
	if tuple.CompareKeys(cand.Cols, tk, prefixLen) != 0 {
		return tuple.Fact{}, false
	}
	// idx is the run start of its key (key asc, seq desc): newest version.
	return cand, true
}

// ceilInPatch finds the per-source ceiling candidate within one patch,
// decoded into cols.
func (p *Pyramid) ceilInPatch(at sim.Time, patch *Patch, tk []uint64, prefixLen int, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	keyCols := len(tk)
	done := at
	// Last page with KeyMin ≤ tk could contain the ceiling; if not, the
	// next page's first row is it.
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, tk, keyCols) > 0
	}) - 1
	if pi < 0 {
		pi = 0
	}
	for ; pi < len(patch.Pages); pi++ {
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		ri := pg.FirstGE(tk)
		if ri == pg.RowCount() {
			continue // ceiling is in a later page
		}
		if tuple.CompareKeys(pg.Keys()[ri*keyCols:], tk, prefixLen) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		return pg.Row(ri, cols), true, done, nil
	}
	return tuple.Fact{}, false, done, nil
}
