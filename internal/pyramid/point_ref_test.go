package pyramid

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// refGet, refGetFloor and refGetCeil are the point lookups as they stood
// when each had its own memtable and patch search, kept as the executable
// specification of the one directed search that replaced them: the same
// fact, the same pages opened in the same order (so the same PageStore reads
// and the same returned time).
func refGet(p *Pyramid, at sim.Time, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	var versionBuf [4]tuple.Fact
	mem, patches := sortedMem(p)
	versions := refMemVersions(p, mem, versionBuf[:0], key)

	for _, f := range versions {
		if !p.elided(f) {
			return f.Clone(), true, done, nil
		}
	}

	var colBuf [stackCols]uint64
	cols := rowBuf(colBuf[:], p.cfg.Schema.Cols)
	h := keyHash(key, k)
	for _, patch := range patches {
		if !patch.filter.mayContain(h) {
			continue
		}
		var f tuple.Fact
		var found bool
		var err error
		if k == 1 {
			f, found, done, err = refGetFromPatch1(p, done, patch, key[0], cols)
		} else {
			f, found, done, err = refGetFromPatch(p, done, patch, key, cols)
		}
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		if found {
			return f.Clone(), true, done, nil
		}
	}
	return tuple.Fact{}, false, done, nil
}

// sortedMem returns, under mu, the memtable as one stable-sorted copy and
// the patch list's header.
func sortedMem(p *Pyramid) ([]tuple.Fact, []*Patch) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	mem := slices.Clone(p.mem)
	slices.SortStableFunc(mem, factOrder(p.cfg.Schema.KeyCols))
	return mem, p.patches
}

func refMemVersions(p *Pyramid, mem, dst []tuple.Fact, key []uint64) []tuple.Fact {
	k := p.cfg.Schema.KeyCols
	out := dst
	if k == 1 {
		key0 := key[0]
		lo, hi := 0, len(mem)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if mem[mid].Cols[0] < key0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for ; lo < len(mem) && mem[lo].Cols[0] == key0; lo++ {
			out = append(out, mem[lo])
		}
	} else {
		i := sort.Search(len(mem), func(i int) bool {
			return tuple.CompareKeys(mem[i].Cols, key, k) >= 0
		})
		for ; i < len(mem) && tuple.CompareKeys(mem[i].Cols, key, k) == 0; i++ {
			out = append(out, mem[i])
		}
	}
	return out
}

func refGetFromPatch1(p *Pyramid, at sim.Time, patch *Patch, key0 uint64, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	done := at
	pages := patch.Pages
	lo, hi := 0, len(pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pages[mid].KeyMin[0] <= key0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for pi := lo - 1; pi >= 0 && pi < len(pages); pi++ {
		if pages[pi].KeyMin[0] > key0 {
			break
		}
		pg, d, err := p.openPage(done, pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		keys := pg.Keys()
		rlo, rhi := 0, len(keys)
		for rlo < rhi {
			mid := int(uint(rlo+rhi) >> 1)
			if keys[mid] < key0 {
				rlo = mid + 1
			} else {
				rhi = mid
			}
		}
		for ; rlo < len(keys); rlo++ {
			if keys[rlo] != key0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Row(rlo, cols)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
	}
	return tuple.Fact{}, false, done, nil
}

func refGetFromPatch(p *Pyramid, at sim.Time, patch *Patch, key []uint64, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, key, k) > 0
	}) - 1
	if pi < 0 {
		return tuple.Fact{}, false, done, nil
	}
	for ; pi < len(patch.Pages); pi++ {
		if tuple.CompareKeys(patch.Pages[pi].KeyMin, key, k) > 0 {
			break
		}
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		keys := pg.Keys()
		for ri := pg.FirstGE(key); ri < pg.RowCount(); ri++ {
			if tuple.CompareKeys(keys[ri*k:], key, k) != 0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Row(ri, cols)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
	}
	return tuple.Fact{}, false, done, nil
}

func refGetFloor(p *Pyramid, at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	done := at
	keyCols := p.cfg.Schema.KeyCols
	var tkBuf, candBuf, bestBuf [stackCols]uint64
	tk := append(append(tkBuf[:0], prefix...), col)
	cand := rowBuf(candBuf[:], p.cfg.Schema.Cols)
	bestCols := rowBuf(bestBuf[:], p.cfg.Schema.Cols)

	for {
		mem, patches := sortedMem(p)
		best, found := refFloorInMem(mem, tk, len(prefix))

		for _, patch := range patches {
			f, ok, d, err := refFloorInPatch(p, done, patch, tk, len(prefix), cand)
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
		c := best.Cols[keyCols-1]
		if c == 0 {
			return tuple.Fact{}, false, done, nil
		}
		tk[keyCols-1] = c - 1
	}
}

func refFloorInMem(mem []tuple.Fact, tk []uint64, prefixLen int) (tuple.Fact, bool) {
	keyCols := len(tk)
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
	start := idx - 1
	for start > 0 && tuple.CompareKeys(mem[start-1].Cols, cand.Cols, keyCols) == 0 {
		start--
	}
	return mem[start], true
}

func refFloorInPatch(p *Pyramid, at sim.Time, patch *Patch, tk []uint64, prefixLen int, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	keyCols := len(tk)
	done := at
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, tk, keyCols) > 0
	}) - 1
	for ; pi >= 0; pi-- {
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		keys := pg.Keys()
		ri := sort.Search(pg.RowCount(), func(i int) bool {
			return tuple.CompareKeys(keys[i*keyCols:], tk, keyCols) > 0
		})
		if ri == 0 {
			continue
		}
		cand := keys[(ri-1)*keyCols:]
		if tuple.CompareKeys(cand, tk, prefixLen) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		start := ri - 1
		for start > 0 && tuple.CompareKeys(keys[(start-1)*keyCols:], cand, keyCols) == 0 {
			start--
		}
		return pg.Row(start, cols), true, done, nil
	}
	return tuple.Fact{}, false, done, nil
}

func refGetCeil(p *Pyramid, at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	done := at
	keyCols := p.cfg.Schema.KeyCols
	var tkBuf, candBuf, bestBuf [stackCols]uint64
	tk := append(append(tkBuf[:0], prefix...), col)
	cand := rowBuf(candBuf[:], p.cfg.Schema.Cols)
	bestCols := rowBuf(bestBuf[:], p.cfg.Schema.Cols)

	for {
		mem, patches := sortedMem(p)
		best, found := refCeilInMem(mem, tk, len(prefix))

		for _, patch := range patches {
			f, ok, d, err := refCeilInPatch(p, done, patch, tk, len(prefix), cand)
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

func refCeilInMem(mem []tuple.Fact, tk []uint64, prefixLen int) (tuple.Fact, bool) {
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
	return cand, true
}

func refCeilInPatch(p *Pyramid, at sim.Time, patch *Patch, tk []uint64, prefixLen int, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	keyCols := len(tk)
	done := at
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
			continue
		}
		if tuple.CompareKeys(pg.Keys()[ri*keyCols:], tk, prefixLen) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		return pg.Row(ri, cols), true, done, nil
	}
	return tuple.Fact{}, false, done, nil
}

// factSource is what both sorted streams (key asc, seq desc) offer. The
// reference scan merges through it; Visit and mergePatches step their
// streams directly, since an interface value holding a pointer would move
// it to the heap.
type factSource interface {
	// peek returns the current fact without consuming it.
	peek() (tuple.Fact, bool)
	// advance consumes the current fact; it may read pages (returns the
	// updated completion time).
	advance(at sim.Time) (sim.Time, error)
}

// memSource streams the reference scan's copy of the sorted memtable.
type memSource struct {
	facts []tuple.Fact
	pos   int
}

func (s *memSource) peek() (tuple.Fact, bool) {
	if s.pos >= len(s.facts) {
		return tuple.Fact{}, false
	}
	return s.facts[s.pos], true
}

func (s *memSource) advance(at sim.Time) (sim.Time, error) {
	s.pos++
	return at, nil
}

// pointResult is what a point lookup shows from outside: its answer and the
// PageStore reads it made.
type pointResult struct {
	fact  tuple.Fact
	found bool
	done  sim.Time
	err   error
	reads []Ref
}

// TestPointLookupsMatchReference drives the reference lookups and
// Pyramid.Get, GetFloor and GetCeil on twin pyramids through random
// inserts, flushes, merges, elisions and recoveries (which rebuild every
// patch from its descriptor, without a key filter), and after every step
// compares them on random keys: the same fact or the same miss, the same
// PageStore reads in the same order from a cold and from a warm page cache,
// the same completion time. Lookups meet memtables of one run and of
// several; elided runs of keys make GetFloor and GetCeil
// step past dead keys, and elided versions make Get look past them.
func TestPointLookupsMatchReference(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1 // check.sh's -race pass: one goroutine here, nothing to race
	}
	for _, keyCols := range []int{1, 2} {
		for _, cachePages := range []int{2, 512} {
			for seed := uint64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("keycols=%d/cache=%d/seed=%d", keyCols, cachePages, seed), func(t *testing.T) {
					diffPoint(t, keyCols, cachePages, seed)
				})
			}
		}
	}
}

func diffPoint(t *testing.T, keyCols, cachePages int, seed uint64) {
	const ids = 400 // keys are ids in [20, 380); lookups range over [0, 400)
	key := func(id int) []uint64 {
		if keyCols == 1 {
			return []uint64{uint64(id)}
		}
		return []uint64{uint64(id / 100), uint64(id % 100)}
	}
	ref, got := newTwin(t, keyCols, cachePages), newTwin(t, keyCols, cachePages)
	r := sim.NewRand(seed)
	seq := tuple.Seq(0)
	at := sim.Time(1000)
	both := func(what string, f func(tw *twin) (sim.Time, error)) {
		t.Helper()
		d1, err1 := f(ref)
		d2, err2 := f(got)
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("%s: reference %v, %v; twin %v, %v", what, d1, err1, d2, err2)
		}
		at = d1
	}
	run := func(tw *twin, lookup func() (tuple.Fact, bool, sim.Time, error)) pointResult {
		tw.store.reads = nil
		var res pointResult
		res.fact, res.found, res.done, res.err = lookup()
		res.reads = tw.store.reads
		return res
	}

	var lookups, hits, stepped, multiRun, oneRun [3]int
	names := [3]string{"Get", "GetFloor", "GetCeil"}
	compare := func(step int) {
		t.Helper()
		for q := 0; q < 24; q++ {
			op := r.Intn(3)
			k := key(r.Intn(ids))
			prefix, col := k[:keyCols-1], k[keyCols-1]
			// A key inside an elided run: floor and ceil must step past it.
			dead := op > 0 && got.et.Elided(tuple.Fact{Seq: 1, Cols: k})
			cold := r.Intn(3) == 0
			if cold {
				ref.p.cache, got.p.cache = newPageCache(cachePages), newPageCache(cachePages)
			}
			got.p.mu.RLock()
			runs := len(got.p.runEnds)
			got.p.mu.RUnlock()
			// Twice: from whatever the cache holds (nothing, if cold), then warm.
			for pass := 0; pass < 2; pass++ {
				var want, have pointResult
				switch op {
				case 0:
					want = run(ref, func() (tuple.Fact, bool, sim.Time, error) { return refGet(ref.p, at, k) })
					have = run(got, func() (tuple.Fact, bool, sim.Time, error) { return got.p.Get(at, k) })
				case 1:
					want = run(ref, func() (tuple.Fact, bool, sim.Time, error) { return refGetFloor(ref.p, at, prefix, col) })
					have = run(got, func() (tuple.Fact, bool, sim.Time, error) { return got.p.GetFloor(at, prefix, col) })
				default:
					want = run(ref, func() (tuple.Fact, bool, sim.Time, error) { return refGetCeil(ref.p, at, prefix, col) })
					have = run(got, func() (tuple.Fact, bool, sim.Time, error) { return got.p.GetCeil(at, prefix, col) })
				}
				where := fmt.Sprintf("step %d lookup %d: %s %v cold=%v pass=%d", step, q, names[op], k, cold, pass)
				if want.err != nil || have.err != nil {
					t.Fatalf("%s: errors %v / %v", where, want.err, have.err)
				}
				if want.found != have.found || !reflect.DeepEqual(want.fact, have.fact) {
					t.Fatalf("%s: found %v %+v, reference %v %+v", where, have.found, have.fact, want.found, want.fact)
				}
				if !reflect.DeepEqual(want.reads, have.reads) {
					t.Fatalf("%s: page reads differ\nreference %v\nlookup    %v", where, want.reads, have.reads)
				}
				if want.done != have.done {
					t.Fatalf("%s: completion time %v, reference %v", where, have.done, want.done)
				}
				if pass == 0 {
					lookups[op]++
					if want.found {
						hits[op]++
						if dead && tuple.CompareKeys(want.fact.Cols, k, keyCols) != 0 {
							stepped[op]++
						}
					}
					if runs >= 2 {
						multiRun[op]++
					} else if runs == 1 {
						oneRun[op]++
					}
				}
			}
		}
	}

	for step := 0; step < 60; step++ {
		switch op := r.Intn(12); {
		case op < 6: // insert; a few hot ids collect more versions than a page holds
			n := r.Intn(100) + 1
			facts := make([]tuple.Fact, n)
			for i := range facts {
				id := 20 + r.Intn(360)
				if r.Intn(3) == 0 {
					id = 100 + 40*r.Intn(4)
				}
				seq++
				facts[i] = tuple.Fact{Seq: seq, Cols: append(key(id), uint64(seq), uint64(r.Intn(4)))}
			}
			both("insert", func(tw *twin) (sim.Time, error) { return at, tw.p.Insert(facts) })
		case op < 8:
			through := seq - tuple.Seq(r.Intn(4)) // a few facts stay in the memtable
			both("flush", func(tw *twin) (sim.Time, error) { return tw.p.Flush(at, through) })
		case op < 9:
			both("merge", func(tw *twin) (sim.Time, error) {
				_, d, err := tw.p.MergeStep(at)
				return d, err
			})
		case op < 10: // recover: every patch rebuilt from its descriptor, unfiltered
			both("recover", func(tw *twin) (sim.Time, error) {
				tw.p = recovered(t, tw.p, tw.et)
				return at, nil
			})
		case op < 11: // elide a run of keys on their last key column: floor and ceil step past it
			lo := uint64(r.Intn(ids))
			if keyCols == 2 {
				lo %= 100
			}
			pred := elide.Predicate{Col: keyCols - 1, Lo: lo, Hi: lo + uint64(r.Intn(8)), MaxSeq: tuple.Watermark(seq)}
			ref.et.Add(pred)
			got.et.Add(pred)
		default: // elide older versions by a value column: Get looks past them
			v := uint64(r.Intn(4))
			pred := elide.Predicate{Col: keyCols + 1, Lo: v, Hi: v, MaxSeq: tuple.Watermark(seq - tuple.Seq(r.Intn(40)))}
			ref.et.Add(pred)
			got.et.Add(pred)
		}
		compare(step)
	}
	t.Logf("lookups %v, hits %v, stepped past a dead key %v, memtable of ≥ 2 runs %v, of one run %v",
		lookups, hits, stepped, multiRun, oneRun)
	for op := range names {
		if hits[op] == 0 || hits[op] == lookups[op] || multiRun[op] == 0 || oneRun[op] == 0 || (op > 0 && stepped[op] == 0) {
			t.Fatalf("%s: the run covered too little", names[op])
		}
	}
}
