package pyramid

import (
	"runtime"
	"runtime/debug"
	"testing"

	"purity/internal/elide"
	"purity/internal/tuple"
)

// addrShaped returns a pyramid shaped like the address map — (medium,
// sector) keys, eight columns — holding a row every eight sectors of
// [0, sectors) from each of four sources: three patches, oldest first, and
// the memtable. Source i holds the sectors ≡ i mod 8, so every window of 64
// sectors crosses all four.
func addrShaped(t *testing.T, sectors uint64) *Pyramid {
	t.Helper()
	p, err := New(Config{ID: 3, Name: "addrs", Schema: tuple.Schema{Cols: 8, KeyCols: 2}, PageRows: 64},
		NewMemStore(), elide.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	seq := tuple.Seq(0)
	for src := uint64(0); src < 4; src++ {
		var facts []tuple.Fact
		for s := src; s < sectors; s += 8 {
			seq++
			facts = append(facts, tuple.Fact{Seq: seq, Cols: []uint64{1, s, 5, s * 512, 4096, 0, 8, uint64(seq)}})
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		if src < 3 {
			if _, err := p.Flush(0, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(p.Patches()) != 3 || p.MemRows() == 0 {
		t.Fatalf("%d patches and %d memtable rows, want 3 and some", len(p.Patches()), p.MemRows())
	}
	return p
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestWarmLookupsAllocate pins what a lookup costs the heap once the pages
// it needs are cached: Visit lends rows and allocates nothing, and a point
// lookup's only allocation is the Clone of the fact it returns.
func TestWarmLookupsAllocate(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	p := addrShaped(t, 4096)

	rows := 0
	visit := func() {
		rows = 0
		if _, err := p.Visit(0, []uint64{1, 1000}, []uint64{1, 1063}, true, func(f tuple.Fact) bool {
			rows++
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, visit); n != 0 {
		t.Errorf("Visit over 64 sectors: %v allocations, want 0", n)
	}
	if rows != 32 {
		t.Errorf("Visit over 64 sectors saw %d rows, want 32", rows)
	}

	for _, c := range []struct {
		name   string
		lookup func() (tuple.Fact, bool, error)
		sector uint64
	}{
		{"Get, oldest patch", func() (tuple.Fact, bool, error) {
			f, ok, _, err := p.Get(0, []uint64{1, 1000})
			return f, ok, err
		}, 1000},
		{"Get, memtable", func() (tuple.Fact, bool, error) {
			f, ok, _, err := p.Get(0, []uint64{1, 1003})
			return f, ok, err
		}, 1003},
		{"GetFloor", func() (tuple.Fact, bool, error) {
			f, ok, _, err := p.GetFloor(0, []uint64{1}, 1006)
			return f, ok, err
		}, 1003},
		{"GetCeil", func() (tuple.Fact, bool, error) {
			f, ok, _, err := p.GetCeil(0, []uint64{1}, 1004)
			return f, ok, err
		}, 1008},
	} {
		var got tuple.Fact
		n := testing.AllocsPerRun(100, func() {
			f, ok, err := c.lookup()
			if err != nil || !ok {
				t.Fatalf("%s: ok=%v err=%v", c.name, ok, err)
			}
			got = f
		})
		if n > 1 {
			t.Errorf("%s: %v allocations, want at most 1 (the returned fact)", c.name, n)
		}
		if got.Cols[1] != c.sector {
			t.Errorf("%s: found sector %d, want %d", c.name, got.Cols[1], c.sector)
		}
	}
}

// TestMergeAllocatesPerPage pins a merge's heap cost to the pages it reads
// and writes: two merges of the same page count, one with eight times the
// rows per page, allocate about the same.
func TestMergeAllocatesPerPage(t *testing.T) {
	merge := func(pageRows int) (uint64, int) {
		p, err := New(Config{ID: 3, Name: "merge", Schema: tuple.Schema{Cols: 4, KeyCols: 1}, PageRows: pageRows},
			NewMemStore(), nil)
		if err != nil {
			t.Fatal(err)
		}
		const pagesPerPatch = 8
		n := uint64(pageRows * pagesPerPatch)
		seq := tuple.Seq(0)
		for patch := uint64(0); patch < 2; patch++ {
			facts := make([]tuple.Fact, 0, n)
			for i := uint64(0); i < n; i++ {
				seq++
				facts = append(facts, tuple.Fact{Seq: seq, Cols: []uint64{2*i + patch, i % 7, uint64(seq), 9}})
			}
			if err := p.Insert(facts); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Flush(0, seq); err != nil {
				t.Fatal(err)
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		merged, _, err := p.MergeStep(0)
		runtime.ReadMemStats(&m1)
		if err != nil || !merged {
			t.Fatalf("merge at %d rows a page: merged=%v err=%v", pageRows, merged, err)
		}
		if got := p.Patches(); len(got) != 1 || got[0].Rows != int(2*n) {
			t.Fatalf("merge at %d rows a page: %d patches, want one of %d rows", pageRows, len(got), 2*n)
		}
		return m1.Mallocs - m0.Mallocs, int(2 * n)
	}
	small, smallRows := merge(32)
	large, largeRows := merge(256)
	t.Logf("16 pages merged: %d allocations at %d rows, %d at %d rows", small, smallRows, large, largeRows)
	if extra := int64(large) - int64(small); extra > int64(largeRows-smallRows)/8 {
		t.Errorf("a merge of 16 pages allocates %d times at %d rows and %d at %d rows: %d more for %d more rows, want fewer than one per 8 rows",
			small, smallRows, large, largeRows, extra, largeRows-smallRows)
	}
}

// TestHotKeyFloorCeilAllocate: GetFloor and GetCeil take only a key's newest
// memtable version, so a key with more versions in the memtable than the
// search's stack array holds still costs one allocation, the returned
// Clone.
func TestHotKeyFloorCeilAllocate(t *testing.T) {
	if raceBuild() {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	p := addrShaped(t, 4096) // the memtable holds the sectors ≡ 3 mod 8
	const newest = tuple.Seq(5000)
	for seq := newest - 15; seq <= newest; seq++ {
		if err := p.Insert([]tuple.Fact{{Seq: seq, Cols: []uint64{1, 1003, 5, 0, 4096, 0, 8, uint64(seq)}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		lookup func() (tuple.Fact, bool, error)
	}{
		{"GetFloor", func() (tuple.Fact, bool, error) {
			f, ok, _, err := p.GetFloor(0, []uint64{1}, 1006)
			return f, ok, err
		}},
		{"GetCeil", func() (tuple.Fact, bool, error) {
			f, ok, _, err := p.GetCeil(0, []uint64{1}, 1003)
			return f, ok, err
		}},
	} {
		var got tuple.Fact
		n := testing.AllocsPerRun(100, func() {
			f, ok, err := c.lookup()
			if err != nil || !ok {
				t.Fatalf("%s: ok=%v err=%v", c.name, ok, err)
			}
			got = f
		})
		if n > 1 {
			t.Errorf("%s: %v allocations on a key with 17 memtable versions, want at most 1", c.name, n)
		}
		if got.Cols[1] != 1003 || got.Seq != newest {
			t.Errorf("%s: found sector %d seq %d, want 1003 seq %d", c.name, got.Cols[1], got.Seq, newest)
		}
	}
}
