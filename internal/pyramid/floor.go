package pyramid

import (
	"sort"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// GetFloor returns the newest fact whose key is prefix++[c] with the
// largest c ≤ col — a floor lookup on the final key column within a fixed
// prefix. The address map uses it to find the cblock covering a sector
// (entries are keyed by starting sector) and the medium table to find the
// range covering an offset.
//
// Elide predicates in this system range over key columns, so within one key
// elision is monotone in sequence number: if a key's newest version is
// elided, every version is. A key whose newest version is elided is
// therefore dead, and GetFloor steps down to the next lower key.
func (p *Pyramid) GetFloor(at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	// Programmer-error guard, not data validation: prefixes are built by
	// engine code from compiled-in schemas, never from on-disk or replayed
	// bytes, so a mismatch here is a caller bug and panicking is correct.
	// (Contrast Insert's SchemaError, which IS reachable from corrupt data.)
	if len(prefix)+1 != p.cfg.Schema.KeyCols {
		panic("pyramid: GetFloor prefix must cover all but the last key column")
	}
	done := at
	keyCols := p.cfg.Schema.KeyCols
	// The target key, built once; a retry below a dead key only lowers its
	// last column. Each patch's candidate is decoded into cand, and one
	// that wins is copied into bestCols, since the next patch decodes over
	// cand.
	var tkBuf, candBuf, bestBuf [stackCols]uint64
	tk := append(append(tkBuf[:0], prefix...), col)
	cand := rowBuf(candBuf[:], p.cfg.Schema.Cols)
	bestCols := rowBuf(bestBuf[:], p.cfg.Schema.Cols)

	for {
		// Per-source floor candidates; the global floor key is their max,
		// and its newest version is the max-seq fact among sources
		// reporting that key. The memtable's candidate is found under the
		// lock (a later sort reuses the memtable's buffers) together with
		// the patch list's header, which is copy-on-write: one snapshot.
		p.mu.Lock()
		p.sortMemLocked()
		best, found := floorInMem(p.mem, tk, len(prefix))
		patches := p.patches
		p.mu.Unlock()

		for _, patch := range patches {
			f, ok, d, err := p.floorInPatch(done, patch, tk, len(prefix), cand)
			done = d
			if err != nil {
				return tuple.Fact{}, false, done, err
			}
			if !ok {
				continue
			}
			if found {
				if c := tuple.CompareKeys(f.Cols, best.Cols, keyCols); c < 0 || (c == 0 && f.Seq <= best.Seq) {
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
		// Dead key: step below it and retry.
		c := best.Cols[keyCols-1]
		if c == 0 {
			return tuple.Fact{}, false, done, nil
		}
		tk[keyCols-1] = c - 1
	}
}

// floorInMem finds the per-source floor candidate in the sorted memtable.
func floorInMem(mem []tuple.Fact, tk []uint64, prefixLen int) (tuple.Fact, bool) {
	keyCols := len(tk)
	// First index with key > tk. Versions sort seq-desc after equal keys,
	// so the run of key tk (if any) ends just before this index.
	idx := sort.Search(len(mem), func(i int) bool {
		return tuple.CompareKeys(mem[i].Cols, tk, keyCols) > 0
	})
	if idx == 0 {
		return tuple.Fact{}, false
	}
	cand := mem[idx-1]
	if tuple.CompareKeys(cand.Cols, tk, prefixLen) != 0 {
		return tuple.Fact{}, false
	}
	// Walk to the start of this key's run: the newest version.
	start := idx - 1
	for start > 0 && tuple.CompareKeys(mem[start-1].Cols, cand.Cols, keyCols) == 0 {
		start--
	}
	return mem[start], true
}

// floorInPatch finds the per-source floor candidate within one patch,
// decoded into cols.
func (p *Pyramid) floorInPatch(at sim.Time, patch *Patch, tk []uint64, prefixLen int, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	keyCols := len(tk)
	done := at
	// Last page whose KeyMin ≤ tk; the floor row is there or at the tail
	// of an earlier page (when that page starts above... it cannot: pages
	// ascend, so if page pi's KeyMin > tk every row of pi is > tk).
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, tk, keyCols) > 0
	}) - 1
	for ; pi >= 0; pi-- {
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		// First row with key > tk: rows before it are ≤ tk.
		keys := pg.Keys()
		ri := sort.Search(pg.RowCount(), func(i int) bool {
			return tuple.CompareKeys(keys[i*keyCols:], tk, keyCols) > 0
		})
		if ri == 0 {
			// Entire page is > tk? Cannot happen (KeyMin ≤ tk) unless the
			// page is empty; either way look at the previous page.
			continue
		}
		cand := keys[(ri-1)*keyCols:]
		if tuple.CompareKeys(cand, tk, prefixLen) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		// Newest version = run start; runs never span pages (writePatch
		// keeps each key's versions in one page).
		start := ri - 1
		for start > 0 && tuple.CompareKeys(keys[(start-1)*keyCols:], cand, keyCols) == 0 {
			start--
		}
		return pg.Row(start, cols), true, done, nil
	}
	return tuple.Fact{}, false, done, nil
}
