package pyramid

import (
	"fmt"
	"reflect"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// TestMaintainMergeRowsBounded: 80 equal flushes, each followed by
// Maintain to 6 patches, keep the cap after every Maintain and merge at most
// 8 rows per row flushed. Smallest-pair's arithmetic for this script is 6.2;
// a rule that always merges the two oldest patches copies the base patch at
// every flush past the cap and merges 35.6.
//
// The bound holds for this length only. With a fixed cap and nothing
// dropped, any merge rule rewrites a fact a number of times that grows with
// the pyramid; smallest-pair grows it about 8× slower than oldest-first —
// at 1,000 equal flushes, 62.7 rows merged per row flushed against 495.5.
func TestMaintainMergeRowsBounded(t *testing.T) {
	const (
		flushes    = 80
		rows       = 32 // per flush, every key distinct: a merge drops nothing
		maxPatches = 6
	)
	p, _ := newTestPyramid(t, nil)
	seq := tuple.Seq(0)
	for i := 0; i < flushes; i++ {
		facts := make([]tuple.Fact, rows)
		for j := range facts {
			seq++
			facts[j] = f3(seq, uint64(seq), uint64(i), 0)
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Flush(0, seq); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Maintain(0, maxPatches); err != nil {
			t.Fatal(err)
		}
		if n := len(p.Patches()); n > maxPatches {
			t.Fatalf("flush %d: %d patches after Maintain, cap %d", i, n, maxPatches)
		}
	}
	flushed, merged := p.RowCounts()
	if flushed != flushes*rows {
		t.Fatalf("flushed %d rows, want %d", flushed, flushes*rows)
	}
	ratio := float64(merged) / float64(flushed)
	t.Logf("%d rows flushed, %d merged: %.2f merged per flushed", flushed, merged, ratio)
	if ratio > 8 {
		t.Errorf("merged %.2f rows per row flushed, want at most 8", ratio)
	}
}

// TestMergeKeepsEveryAnswer drives seeded pyramids through flushes of
// random-sized runs, key-range elisions and one recovery, and around every
// MergeStep asks Get, GetFloor and GetCeil at every key in range and a
// newest-version Visit of everything: each answer must be identical before
// and after. It runs with plain newest-wins shadowing and with a coverage
// rule like the address map's (an older extent survives until a newer one at
// the same start reaches as far), under which the newest extent covering
// each sector, over every version, must not move either. It requires merges
// of pairs other than the two oldest, which are the ones smallest-pair adds.
func TestMergeKeepsEveryAnswer(t *testing.T) {
	covers := func(older tuple.Fact, keptNewer []tuple.Fact) bool {
		for _, n := range keptNewer {
			if n.Cols[2] >= older.Cols[2] { // same start: compare lengths
				return true
			}
		}
		return false
	}
	for _, rule := range []struct {
		name     string
		shadowed func(tuple.Fact, []tuple.Fact) bool
	}{{"newest-wins", nil}, {"coverage", covers}} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", rule.name, seed), func(t *testing.T) {
				mergeKeepsEveryAnswer(t, rule.shadowed, seed)
			})
		}
	}
}

// answers is everything a reader can ask of a pyramid over the test's key
// space: Get, GetFloor and GetCeil at every key, a newest-version Visit and,
// under a coverage rule, each sector's newest covering extent.
type answers struct {
	get, floor, ceil []tuple.Fact
	visit            []tuple.Fact
	cover            map[[2]uint64]tuple.Fact
}

func mergeKeepsEveryAnswer(t *testing.T, shadowed func(tuple.Fact, []tuple.Fact) bool, seed uint64) {
	const (
		prefixes = 3 // keys are (prefix, start); lookups also ask prefix 3
		starts   = 48
	)
	et := elide.NewTable()
	// Columns: prefix, start, length, value.
	p, err := New(Config{ID: 9, Name: "merge", Schema: tuple.Schema{Cols: 4, KeyCols: 2}, PageRows: 16, Shadowed: shadowed},
		NewMemStore(), et)
	if err != nil {
		t.Fatal(err)
	}
	ask := func() answers {
		var a answers
		for pre := uint64(0); pre <= prefixes; pre++ {
			for c := uint64(0); c <= starts; c++ {
				for _, q := range []struct {
					dst *[]tuple.Fact
					fn  func() (tuple.Fact, bool, sim.Time, error)
				}{
					{&a.get, func() (tuple.Fact, bool, sim.Time, error) { return p.Get(0, []uint64{pre, c}) }},
					{&a.floor, func() (tuple.Fact, bool, sim.Time, error) { return p.GetFloor(0, []uint64{pre}, c) }},
					{&a.ceil, func() (tuple.Fact, bool, sim.Time, error) { return p.GetCeil(0, []uint64{pre}, c) }},
				} {
					f, ok, _, err := q.fn()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						f = tuple.Fact{} // a miss is its own answer
					}
					*q.dst = append(*q.dst, f)
				}
			}
		}
		if _, err := p.Visit(0, nil, nil, false, func(f tuple.Fact) bool {
			a.visit = append(a.visit, f.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if shadowed == nil {
			return a // newest-wins drops older versions that cover more
		}
		a.cover = map[[2]uint64]tuple.Fact{}
		if _, err := p.Visit(0, nil, nil, true, func(f tuple.Fact) bool {
			for s := f.Cols[1]; s < f.Cols[1]+f.Cols[2]; s++ {
				if c, ok := a.cover[[2]uint64{f.Cols[0], s}]; !ok || f.Seq > c.Seq {
					a.cover[[2]uint64{f.Cols[0], s}] = f.Clone()
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return a
	}

	r := sim.NewRand(seed)
	seq := tuple.Seq(0)
	merges, interior := 0, 0
	for step := 0; step < 60; step++ {
		// A run of random size, so patch sizes differ and the smallest
		// pair is often not the oldest.
		facts := make([]tuple.Fact, r.Intn(120)+1)
		for i := range facts {
			seq++
			start := uint64(r.Intn(starts))
			if r.Intn(4) == 0 {
				start = 7 // a hot key with many versions
			}
			facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{uint64(r.Intn(prefixes)), start, uint64(r.Intn(8) + 1), uint64(seq)}}
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Flush(0, seq-tuple.Seq(r.Intn(3))); err != nil {
			t.Fatal(err)
		}
		if r.Intn(5) == 0 {
			// Elide a range of starts, or now and then a whole prefix, as
			// of now: over key columns, elision within a key stays
			// monotone in sequence number.
			lo := uint64(r.Intn(starts))
			pred := elide.Predicate{Col: 1, Lo: lo, Hi: lo + uint64(r.Intn(4)), MaxSeq: tuple.Watermark(seq)}
			if r.Intn(4) == 0 {
				pre := uint64(r.Intn(prefixes))
				pred = elide.Predicate{Col: 0, Lo: pre, Hi: pre, MaxSeq: tuple.Watermark(seq)}
			}
			et.Add(pred)
		}
		if step == 30 {
			p = recovered(t, p, et)
		}
		for len(p.Patches()) > 4 {
			before := p.Patches()
			want := ask()
			ok, _, err := p.MergeStep(0)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("step %d: no merge among %d patches", step, len(before))
			}
			merges++
			if oldest := before[len(before)-1]; p.Patches()[len(p.Patches())-1] == oldest {
				interior++
			}
			if got := ask(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: a merge changed an answer:\n got %+v\nwant %+v", step, got, want)
			}
		}
	}
	t.Logf("%d merges, %d of them not of the two oldest patches", merges, interior)
	if interior == 0 {
		t.Fatalf("all %d merges took the two oldest patches", merges)
	}
}

// TestRecoveredPatchesRegainFilters: patches decoded from their descriptors
// have no key filter, and a merge is what rebuilds one. Merges prefer a
// pair holding such a patch, so MaxPatches flushes with Maintain after a
// recovery leave every patch filtered — even when the recovered patches are
// far larger than the new ones, which smallest-pair alone would merge
// among themselves.
func TestRecoveredPatchesRegainFilters(t *testing.T) {
	const maxPatches = 6
	p, _ := newTestPyramid(t, nil)
	seq := tuple.Seq(0)
	flush := func(p *Pyramid, rows int) {
		t.Helper()
		facts := make([]tuple.Fact, rows)
		for i := range facts {
			seq++
			facts[i] = f3(seq, uint64(seq), 1, 0)
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Flush(0, seq); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Maintain(0, maxPatches); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxPatches; i++ {
		flush(p, 200)
	}
	p = recovered(t, p, nil)
	for _, patch := range p.Patches() {
		if !patch.unfiltered() {
			t.Fatalf("recovered patch [%d,%d] has a filter", patch.SeqLo, patch.SeqHi)
		}
	}
	for i := 0; i < maxPatches; i++ {
		flush(p, 5)
	}
	for _, patch := range p.Patches() {
		if patch.unfiltered() {
			t.Errorf("patch [%d,%d] of %d rows still has no filter %d flushes after recovery",
				patch.SeqLo, patch.SeqHi, patch.Rows, maxPatches)
		}
	}
}
