package pyramid

import (
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

var testSchema = tuple.Schema{Cols: 3, KeyCols: 1}

func newTestPyramid(t testing.TB, et *elide.Table) (*Pyramid, *MemStore) {
	t.Helper()
	store := NewMemStore()
	p, err := New(Config{ID: 7, Name: "test", Schema: testSchema, PageRows: 16}, store, et)
	if err != nil {
		t.Fatal(err)
	}
	return p, store
}

func f3(seq tuple.Seq, key, a, b uint64) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: []uint64{key, a, b}}
}

func mustGet(t *testing.T, p *Pyramid, key uint64) tuple.Fact {
	t.Helper()
	f, ok, _, err := p.Get(0, []uint64{key})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("key %d not found", key)
	}
	return f
}

func TestMemtableGetNewestWins(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 10, 100, 0), f3(2, 10, 200, 0), f3(3, 20, 300, 0)})
	if got := mustGet(t, p, 10); got.Seq != 2 || got.Cols[1] != 200 {
		t.Fatalf("got %+v", got)
	}
	if got := mustGet(t, p, 20); got.Cols[1] != 300 {
		t.Fatalf("got %+v", got)
	}
	if _, ok, _, _ := p.Get(0, []uint64{99}); ok {
		t.Fatal("missing key found")
	}
}

func TestFlushRespectsWALWatermark(t *testing.T) {
	// Figure 4 invariant: facts with seq above the NVRAM-persisted
	// watermark must not reach segments.
	p, store := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 1, 11, 0), f3(2, 2, 22, 0), f3(3, 3, 33, 0)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	if p.MemRows() != 1 {
		t.Fatalf("MemRows = %d, want 1 (seq 3 retained)", p.MemRows())
	}
	if p.FlushedThrough() != 2 {
		t.Fatalf("FlushedThrough = %d", p.FlushedThrough())
	}
	patches := p.Patches()
	if len(patches) != 1 || patches[0].SeqLo != 1 || patches[0].SeqHi != 2 || patches[0].Rows != 2 {
		t.Fatalf("patches = %+v", patches)
	}
	if len(store.Descriptors) != 1 {
		t.Fatalf("descriptors = %d", len(store.Descriptors))
	}
	// All three keys still visible.
	for _, k := range []uint64{1, 2, 3} {
		mustGet(t, p, k)
	}
}

func TestFlushNothingEligible(t *testing.T) {
	p, store := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(5, 1, 1, 1)})
	if _, err := p.Flush(0, 4); err != nil {
		t.Fatal(err)
	}
	if len(p.Patches()) != 0 || len(store.Descriptors) != 0 {
		t.Fatal("flush below watermark wrote something")
	}
	if p.MemRows() != 1 {
		t.Fatal("memtable lost facts")
	}
}

func TestGetAcrossPatchesAndMem(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	// Three generations of key 42 across two patches and the memtable.
	p.Insert([]tuple.Fact{f3(1, 42, 100, 0)})
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f3(2, 42, 200, 0)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f3(3, 42, 300, 0)})
	if got := mustGet(t, p, 42); got.Cols[1] != 300 {
		t.Fatalf("got %+v, want memtable version", got)
	}
	// Drop the memtable version by flushing, then verify patch order.
	if _, err := p.Flush(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, p, 42); got.Cols[1] != 300 || got.Seq != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestGetSpanningManyPages(t *testing.T) {
	p, _ := newTestPyramid(t, nil) // 16 rows per page
	var facts []tuple.Fact
	for i := 0; i < 200; i++ {
		facts = append(facts, f3(tuple.Seq(i+1), uint64(i), uint64(i*10), 7))
	}
	p.Insert(facts)
	if _, err := p.Flush(0, 200); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Patches()[0].Pages); got < 10 {
		t.Fatalf("expected many pages, got %d", got)
	}
	for _, k := range []uint64{0, 15, 16, 17, 99, 199} {
		if got := mustGet(t, p, k); got.Cols[1] != k*10 {
			t.Fatalf("key %d: %+v", k, got)
		}
	}
}

func TestScanNewestPerKey(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 1, 10, 0), f3(2, 2, 20, 0), f3(3, 3, 30, 0)})
	if _, err := p.Flush(0, 3); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f3(4, 2, 21, 0), f3(5, 4, 40, 0)})

	var keys []uint64
	var vals []uint64
	if _, err := p.Scan(0, nil, nil, func(f tuple.Fact) bool {
		keys = append(keys, f.Cols[0])
		vals = append(vals, f.Cols[1])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	wantKeys := []uint64{1, 2, 3, 4}
	wantVals := []uint64{10, 21, 30, 40}
	if len(keys) != 4 {
		t.Fatalf("scanned %v", keys)
	}
	for i := range wantKeys {
		if keys[i] != wantKeys[i] || vals[i] != wantVals[i] {
			t.Fatalf("scan = %v/%v, want %v/%v", keys, vals, wantKeys, wantVals)
		}
	}
}

func TestScanRangeAndEarlyStop(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	for i := 0; i < 50; i++ {
		p.Insert([]tuple.Fact{f3(tuple.Seq(i+1), uint64(i), uint64(i), 0)})
	}
	var got []uint64
	if _, err := p.Scan(0, []uint64{10}, []uint64{20}, func(f tuple.Fact) bool {
		got = append(got, f.Cols[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("range scan = %v", got)
	}
	// Early stop after 3.
	got = nil
	if _, err := p.Scan(0, nil, nil, func(f tuple.Fact) bool {
		got = append(got, f.Cols[0])
		return len(got) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("early stop scanned %d", len(got))
	}
}

func TestScanVersions(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 7, 100, 0)})
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f3(2, 7, 200, 0)})
	var seqs []tuple.Seq
	if _, err := p.ScanVersions(0, nil, nil, func(f tuple.Fact) bool {
		seqs = append(seqs, f.Seq)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 1 {
		t.Fatalf("versions = %v, want [2 1]", seqs)
	}
}

func TestElisionHidesAndMergeDrops(t *testing.T) {
	et := elide.NewTable()
	p, _ := newTestPyramid(t, et)
	var facts []tuple.Fact
	for i := 0; i < 20; i++ {
		facts = append(facts, f3(tuple.Seq(i+1), uint64(i), uint64(i), 0))
	}
	p.Insert(facts)
	if _, err := p.Flush(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flush(0, 20); err != nil {
		t.Fatal(err)
	}
	// Elide keys 0-9 (all with seq <= 1000).
	et.Add(elide.Predicate{Col: 0, Lo: 0, Hi: 9, MaxSeq: 1000})

	if _, ok, _, _ := p.Get(0, []uint64{5}); ok {
		t.Fatal("elided key visible via Get")
	}
	var seen []uint64
	if _, err := p.Scan(0, nil, nil, func(f tuple.Fact) bool {
		seen = append(seen, f.Cols[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 || seen[0] != 10 {
		t.Fatalf("scan after elide = %v", seen)
	}

	// Merge physically drops the elided rows right away (§4.10), unlike
	// tombstones which must sink to the bottom first.
	merged, _, err := p.MergeStep(0)
	if err != nil || !merged {
		t.Fatalf("MergeStep = %v, %v", merged, err)
	}
	patches := p.Patches()
	if len(patches) != 1 {
		t.Fatalf("patches after merge = %d", len(patches))
	}
	if patches[0].Rows != 10 {
		t.Fatalf("merged patch has %d rows, want 10 (elided dropped)", patches[0].Rows)
	}
	if patches[0].SeqLo != 1 || patches[0].SeqHi != 20 {
		t.Fatalf("merged range [%d,%d]", patches[0].SeqLo, patches[0].SeqHi)
	}
}

func TestMergeShadowedVersionsDropped(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 7, 100, 0), f3(2, 8, 800, 0)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	p.Insert([]tuple.Fact{f3(3, 7, 300, 0)})
	if _, err := p.Flush(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.MergeStep(0); err != nil {
		t.Fatal(err)
	}
	patches := p.Patches()
	if len(patches) != 1 || patches[0].Rows != 2 {
		t.Fatalf("merged patches = %+v", patches)
	}
	if got := mustGet(t, p, 7); got.Cols[1] != 300 {
		t.Fatalf("after merge got %+v", got)
	}
	if got := mustGet(t, p, 8); got.Cols[1] != 800 {
		t.Fatalf("after merge got %+v", got)
	}
}

func TestMaintainBoundsPatchCount(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	for i := 0; i < 10; i++ {
		p.Insert([]tuple.Fact{f3(tuple.Seq(i+1), uint64(i%3), uint64(i), 0)})
		if _, err := p.Flush(0, tuple.Seq(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.Patches()) != 10 {
		t.Fatalf("patches = %d", len(p.Patches()))
	}
	if _, err := p.Maintain(0, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(p.Patches()); got > 2 {
		t.Fatalf("patches after Maintain = %d", got)
	}
	// Newest version of each key survives.
	if got := mustGet(t, p, 0); got.Cols[1] != 9 {
		t.Fatalf("key 0 = %+v", got)
	}
}

func TestAddPatchIdempotent(t *testing.T) {
	p, _ := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 1, 1, 1), f3(2, 2, 2, 2)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	orig := p.Patches()[0]
	// Recovery re-adding the same patch (same range): no duplicate.
	p.AddPatch(&Patch{SeqLo: orig.SeqLo, SeqHi: orig.SeqHi, Pages: orig.Pages, Rows: orig.Rows})
	if len(p.Patches()) != 1 {
		t.Fatalf("patches = %d after duplicate add", len(p.Patches()))
	}
	// A covering (merged) patch replaces the covered one.
	p.AddPatch(&Patch{SeqLo: 1, SeqHi: 5, Rows: 0})
	patches := p.Patches()
	if len(patches) != 1 || patches[0].SeqHi != 5 {
		t.Fatalf("patches = %+v", patches)
	}
	// A covered patch arriving after its cover is dropped.
	p.AddPatch(&Patch{SeqLo: 2, SeqHi: 3, Rows: 99})
	if len(p.Patches()) != 1 || p.Patches()[0].SeqHi != 5 {
		t.Fatalf("covered patch not dropped: %+v", p.Patches())
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	p, store := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 5, 50, 500), f3(2, 6, 60, 600)})
	if _, err := p.Flush(0, 2); err != nil {
		t.Fatal(err)
	}
	id, patch, err := UnmarshalPatch(store.Descriptors[0])
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Fatalf("relation id = %d", id)
	}
	orig := p.Patches()[0]
	if patch.SeqLo != orig.SeqLo || patch.SeqHi != orig.SeqHi || patch.Rows != orig.Rows {
		t.Fatalf("patch = %+v, want %+v", patch, orig)
	}
	if len(patch.Pages) != len(orig.Pages) || patch.Pages[0].Ref != orig.Pages[0].Ref {
		t.Fatalf("pages = %+v", patch.Pages)
	}
	// A rebuilt pyramid can serve lookups from the recovered patch.
	p2, err := New(Config{ID: 7, Name: "test", Schema: testSchema}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2.AddPatch(patch)
	if got := mustGet(t, p2, 5); got.Cols[1] != 50 {
		t.Fatalf("recovered lookup = %+v", got)
	}
	// Garbage is rejected.
	if _, _, err := UnmarshalPatch([]byte("not a descriptor")); err != ErrNotDescriptor {
		t.Fatalf("garbage: %v", err)
	}
	if _, _, err := UnmarshalPatch(store.Descriptors[0][:5]); err == nil {
		t.Fatal("truncated descriptor accepted")
	}
}

func TestPageCacheAvoidsRereads(t *testing.T) {
	p, store := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 1, 1, 1)})
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	mustGet(t, p, 1)
	reads := store.Reads
	mustGet(t, p, 1)
	mustGet(t, p, 1)
	if store.Reads != reads {
		t.Fatalf("cache miss on repeat gets: %d -> %d", reads, store.Reads)
	}
}

func TestFlushFailureRetainsMemtable(t *testing.T) {
	p, store := newTestPyramid(t, nil)
	p.Insert([]tuple.Fact{f3(1, 1, 1, 1)})
	store.FailWrites = true
	if _, err := p.Flush(0, 1); err == nil {
		t.Fatal("flush with failing store succeeded")
	}
	if p.MemRows() != 1 {
		t.Fatal("memtable lost facts on failed flush")
	}
	store.FailWrites = false
	if _, err := p.Flush(0, 1); err != nil {
		t.Fatal(err)
	}
	mustGet(t, p, 1)
}

func TestPyramidAgainstModel(t *testing.T) {
	// Randomized: interleaved inserts, flushes and merges must always agree
	// with a flat map model (newest value per key, minus elided keys).
	r := sim.NewRand(42)
	et := elide.NewTable()
	p, _ := newTestPyramid(t, et)
	model := map[uint64]uint64{} // key -> newest value
	elidedBelow := uint64(0)     // keys < this are elided

	seq := tuple.Seq(0)
	for step := 0; step < 2000; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			key := uint64(r.Intn(200))
			val := r.Uint64()
			seq++
			p.Insert([]tuple.Fact{f3(seq, key, val, 0)})
			if key >= elidedBelow {
				model[key] = val
			} else {
				// Key below the elide line but written with a new seq:
				// MaxSeq on predicates is old, so this write survives.
				model[key] = val
			}
		case 6, 7:
			if _, err := p.Flush(0, seq); err != nil {
				t.Fatal(err)
			}
		case 8:
			if _, _, err := p.MergeStep(0); err != nil {
				t.Fatal(err)
			}
		case 9:
			// Elide a small prefix of the key space as of now.
			hi := uint64(r.Intn(50))
			et.Add(elide.Predicate{Col: 0, Lo: 0, Hi: hi, MaxSeq: seq})
			if hi+1 > elidedBelow {
				elidedBelow = hi + 1
			}
			for k := range model {
				if k <= hi {
					delete(model, k)
				}
			}
		}
	}
	for key, want := range model {
		got, ok, _, err := p.Get(0, []uint64{key})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("key %d missing (want %d)", key, want)
		}
		if got.Cols[1] != want {
			t.Fatalf("key %d = %d, want %d", key, got.Cols[1], want)
		}
	}
	// And nothing extra: scan count matches model size.
	count := 0
	if _, err := p.Scan(0, nil, nil, func(tuple.Fact) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != len(model) {
		t.Fatalf("scan found %d keys, model has %d", count, len(model))
	}
}

func BenchmarkInsertFlush(b *testing.B) {
	store := NewMemStore()
	p, _ := New(Config{ID: 1, Name: "bench", Schema: testSchema}, store, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := tuple.Seq(i + 1)
		p.Insert([]tuple.Fact{f3(seq, uint64(i%10000), uint64(i), 0)})
		if i%1024 == 1023 {
			if _, err := p.Flush(0, seq); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Maintain(0, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGetFromPatches(b *testing.B) {
	store := NewMemStore()
	p, _ := New(Config{ID: 1, Name: "bench", Schema: testSchema}, store, nil)
	var facts []tuple.Fact
	for i := 0; i < 100000; i++ {
		facts = append(facts, f3(tuple.Seq(i+1), uint64(i), uint64(i), 0))
	}
	p.Insert(facts)
	if _, err := p.Flush(0, 100000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, _ := p.Get(0, []uint64{uint64(i % 100000)}); !ok {
			b.Fatal("miss")
		}
	}
}
