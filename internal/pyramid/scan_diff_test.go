package pyramid

import (
	"fmt"
	"reflect"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// refPatchSource and refScan are the scan as it stood before patchSource
// learned to seek, kept as the executable specification: every page is
// decoded whole, and a window's start is reached by stepping over every row
// below it. What the seek must preserve is everything visible from outside
// — the facts delivered, their order, and the sequence of pages opened
// (which, through the page cache, is the sequence of PageStore reads and
// therefore the returned time and the device model's whole view of a
// lookup).
type refPatchSource struct {
	p       *Pyramid
	patch   *Patch
	pageIdx int
	rows    []tuple.Fact
	pos     int
}

func (s *refPatchSource) load(at sim.Time) (sim.Time, error) {
	for s.rows == nil || s.pos >= len(s.rows) {
		if s.rows != nil {
			s.pageIdx++
		}
		if s.pageIdx >= len(s.patch.Pages) {
			s.rows = []tuple.Fact{}
			s.pos = 0
			return at, nil
		}
		pg, d, err := s.p.openPage(at, s.patch.Pages[s.pageIdx].Ref)
		at = d
		if err != nil {
			return at, err
		}
		s.rows = pg.All()
		s.pos = 0
	}
	return at, nil
}

func (s *refPatchSource) peek() (tuple.Fact, bool) {
	if s.rows == nil || s.pos >= len(s.rows) {
		return tuple.Fact{}, false
	}
	return s.rows[s.pos], true
}

func (s *refPatchSource) advance(at sim.Time) (sim.Time, error) {
	s.pos++
	return s.load(at)
}

func refScan(p *Pyramid, at sim.Time, loKey, hiKey []uint64, allVersions bool, fn func(tuple.Fact) bool) (sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	memCopy, patches := sortedMem(p)

	sources := make([]factSource, 0, len(patches)+1)
	sources = append(sources, &memSource{facts: memCopy})
	for _, patch := range patches {
		ps := &refPatchSource{p: p, patch: patch}
		var err error
		done, err = ps.load(done)
		if err != nil {
			return done, err
		}
		sources = append(sources, ps)
	}

	// Skip sources forward to loKey, row by row.
	if loKey != nil {
		for _, s := range sources {
			for {
				f, ok := s.peek()
				if !ok || tuple.CompareKeys(f.Cols, loKey, k) >= 0 {
					break
				}
				var err error
				done, err = s.advance(done)
				if err != nil {
					return done, err
				}
			}
		}
	}

	var lastKey []uint64
	lastEmitted := false
	for {
		best := -1
		var bestFact tuple.Fact
		for i, s := range sources {
			f, ok := s.peek()
			if !ok {
				continue
			}
			if best < 0 || tuple.Less(f, bestFact, k) {
				best = i
				bestFact = f
			}
		}
		if best < 0 {
			return done, nil
		}
		if hiKey != nil && tuple.CompareKeys(bestFact.Cols, hiKey, k) > 0 {
			return done, nil
		}
		var err error
		done, err = sources[best].advance(done)
		if err != nil {
			return done, err
		}

		newKey := lastKey == nil || tuple.CompareKeys(bestFact.Cols, lastKey, k) != 0
		if newKey {
			lastKey = append(lastKey[:0], bestFact.Cols[:k]...)
			lastEmitted = false
		}
		if !allVersions && lastEmitted {
			continue
		}
		if p.elided(bestFact) {
			continue
		}
		lastEmitted = true
		if !fn(bestFact.Clone()) {
			return done, nil
		}
	}
}

// recordingStore is a MemStore that remembers which pages were read.
type recordingStore struct {
	*MemStore
	reads []Ref
}

func (s *recordingStore) ReadPage(at sim.Time, ref Ref) ([]byte, sim.Time, error) {
	s.reads = append(s.reads, ref)
	return s.MemStore.ReadPage(at, ref)
}

// twin is one of two pyramids fed the same facts, flushed and merged at the
// same moments; one is scanned by refScan, the other by Pyramid.scan. Page
// refs come out of MemStore in write order, so the twins' refs are equal.
type twin struct {
	p     *Pyramid
	store *recordingStore
	et    *elide.Table
}

func newTwin(t *testing.T, keyCols, cachePages int) *twin {
	t.Helper()
	tw := &twin{store: &recordingStore{MemStore: NewMemStore()}, et: elide.NewTable()}
	tw.store.Latency = 7
	p, err := New(Config{ID: 7, Name: "twin", Schema: tuple.Schema{Cols: keyCols + 2, KeyCols: keyCols},
		PageRows: 16, CachePages: cachePages}, tw.store, tw.et)
	if err != nil {
		t.Fatal(err)
	}
	tw.p = p
	return tw
}

type scanResult struct {
	facts []tuple.Fact
	reads []Ref
	done  sim.Time
	err   error
}

func (tw *twin) run(scan func(sim.Time, []uint64, []uint64, bool, func(tuple.Fact) bool) (sim.Time, error),
	at sim.Time, lo, hi []uint64, all bool, stopAfter int) scanResult {
	tw.store.reads = nil
	var res scanResult
	res.done, res.err = scan(at, lo, hi, all, func(f tuple.Fact) bool {
		res.facts = append(res.facts, f)
		return len(res.facts) != stopAfter
	})
	res.reads = tw.store.reads
	return res
}

// TestScanMatchesRowSkipReference drives refScan and Pyramid.scan on twin
// pyramids through random inserts, flushes, merges and elisions, and after
// every step compares them on random windows: the same facts in the same
// order, the same PageStore reads in the same order from a cold and from a
// warm page cache, the same completion time. With a two-page cache nearly
// every open is a read, so a seek that skipped, reordered or added one
// page-open would show in the read sequence at once; with a large cache it
// would show as soon as the LRU order it left behind met an eviction.
func TestScanMatchesRowSkipReference(t *testing.T) {
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1 // check.sh's -race pass: one goroutine here, nothing to race
	}
	for _, keyCols := range []int{1, 2} {
		for _, cachePages := range []int{2, 512} {
			for seed := uint64(1); seed <= seeds; seed++ {
				t.Run(fmt.Sprintf("keycols=%d/cache=%d/seed=%d", keyCols, cachePages, seed), func(t *testing.T) {
					diffScan(t, keyCols, cachePages, seed)
				})
			}
		}
	}
}

func diffScan(t *testing.T, keyCols, cachePages int, seed uint64) {
	const ids = 400 // keys are ids in [20, 380); windows range over [0, 400)
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

	windows := 0
	compare := func(step int) {
		t.Helper()
		for q := 0; q < 12; q++ {
			var lo, hi []uint64
			loID := r.Intn(ids)
			if r.Intn(8) > 0 {
				lo = key(loID)
			}
			if r.Intn(8) > 0 {
				span := []int{0, 0, 1, 3, 20, 63, ids}[r.Intn(7)]
				hi = key(min(loID+span, ids-1))
			}
			all := r.Intn(3) > 0
			stopAfter := -1
			if r.Intn(4) == 0 {
				stopAfter = r.Intn(5) + 1
			}
			cold := r.Intn(3) == 0
			if cold {
				ref.p.cache, got.p.cache = newPageCache(cachePages), newPageCache(cachePages)
			}
			// Twice: from whatever the cache holds (nothing, if cold), then warm.
			for pass := 0; pass < 2; pass++ {
				want := ref.run(func(at sim.Time, lo, hi []uint64, all bool, fn func(tuple.Fact) bool) (sim.Time, error) {
					return refScan(ref.p, at, lo, hi, all, fn)
				}, at, lo, hi, all, stopAfter)
				have := got.run(got.p.scan, at, lo, hi, all, stopAfter)
				where := fmt.Sprintf("step %d window %d [%v, %v] allVersions=%v stopAfter=%d cold=%v pass=%d",
					step, q, lo, hi, all, stopAfter, cold, pass)
				if want.err != nil || have.err != nil {
					t.Fatalf("%s: errors %v / %v", where, want.err, have.err)
				}
				if !reflect.DeepEqual(want.facts, have.facts) {
					t.Fatalf("%s: facts differ\nreference %v\nscan      %v", where, want.facts, have.facts)
				}
				if !reflect.DeepEqual(want.reads, have.reads) {
					t.Fatalf("%s: page reads differ\nreference %v\nscan      %v", where, want.reads, have.reads)
				}
				if want.done != have.done {
					t.Fatalf("%s: completion time %v, reference %v", where, have.done, want.done)
				}
				windows++
			}
		}
	}

	for step := 0; step < 60; step++ {
		switch op := r.Intn(10); {
		case op < 5: // insert; a few hot ids collect many versions
			n := r.Intn(60) + 1
			facts := make([]tuple.Fact, n)
			for i := range facts {
				id := 20 + r.Intn(360)
				if r.Intn(3) == 0 {
					id = 100 + 40*r.Intn(4)
				}
				seq++
				facts[i] = tuple.Fact{Seq: seq, Cols: append(key(id), uint64(seq), uint64(r.Intn(3)))}
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
		default: // elide a run of keys on their first column, as the engine does
			lo := uint64(r.Intn(ids))
			if keyCols == 2 {
				lo /= 100
			}
			pred := elide.Predicate{Col: 0, Lo: lo, Hi: lo + uint64(r.Intn(3)), MaxSeq: tuple.Watermark(seq)}
			ref.et.Add(pred)
			got.et.Add(pred)
		}
		compare(step)
	}
	pages := 0
	for _, patch := range got.p.Patches() {
		pages += len(patch.Pages)
	}
	if pages < 8 {
		t.Fatalf("only %d pages at the end: the windows never passed one", pages)
	}
	t.Logf("%d windows compared, %d patches, %d pages", windows, len(got.p.Patches()), pages)
}
