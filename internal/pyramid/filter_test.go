package pyramid

import (
	"fmt"
	"reflect"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// recovered returns a pyramid over the same store and elide table holding
// p's memtable and its patches as recovery rebuilds them: decoded from their
// descriptors, so without key filters.
func recovered(t *testing.T, p *Pyramid, et *elide.Table) *Pyramid {
	t.Helper()
	r, err := New(p.cfg, p.store, et)
	if err != nil {
		t.Fatal(err)
	}
	for _, patch := range p.Patches() {
		_, dec, err := UnmarshalPatch(MarshalPatch(p.cfg.ID, patch))
		if err != nil {
			t.Fatal(err)
		}
		r.AddPatch(dec)
	}
	p.mu.Lock()
	mem := append([]tuple.Fact(nil), p.mem...)
	p.mu.Unlock()
	if err := r.Insert(mem); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFilteredGetMatchesUnfiltered drives a pyramid through random inserts,
// flushes, merges, elisions and one recovery (after which its patches mix
// unfiltered ones from descriptors with filtered ones from later flushes and
// merges), and after every step compares its Get with Get on the same
// patches rebuilt from their descriptors, which admit every key: the same
// fact or the same miss, for present keys, absent keys, elided versions and
// a hot key with more versions than a page holds.
func TestFilteredGetMatchesUnfiltered(t *testing.T) {
	for _, keyCols := range []int{1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("keycols=%d/seed=%d", keyCols, seed), func(t *testing.T) {
				diffGet(t, keyCols, seed)
			})
		}
	}
}

func diffGet(t *testing.T, keyCols int, seed uint64) {
	const ids = 600 // keys are ids in [0, 400); lookups range over [0, 600)
	key := func(id int) []uint64 {
		if keyCols == 1 {
			return []uint64{uint64(id)}
		}
		return []uint64{uint64(id / 100), uint64(id % 100)}
	}
	et := elide.NewTable()
	// Merges keep every version, so the hot key's versions stay spread
	// over pages and an elided newest version leaves older ones to find.
	p, err := New(Config{ID: 5, Name: "filtered", Schema: tuple.Schema{Cols: keyCols + 2, KeyCols: keyCols}, PageRows: 16,
		Shadowed: func(tuple.Fact, []tuple.Fact) bool { return false }}, NewMemStore(), et)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(seed)
	seq := tuple.Seq(0)
	hits, misses, unfiltered, long := 0, 0, 0, 0
	for step := 0; step < 80; step++ {
		switch op := r.Intn(11); {
		case op < 6:
			n := r.Intn(60) + 1
			facts := make([]tuple.Fact, n)
			for i := range facts {
				id := r.Intn(400)
				if r.Intn(3) == 0 {
					id = 150 // a hot key: more versions than PageRows
				}
				seq++
				facts[i] = tuple.Fact{Seq: seq, Cols: append(key(id), uint64(seq), uint64(r.Intn(4)))}
			}
			if err := p.Insert(facts); err != nil {
				t.Fatal(err)
			}
		case op < 9:
			if _, err := p.Flush(0, seq-tuple.Seq(r.Intn(4))); err != nil {
				t.Fatal(err)
			}
		case op < 10:
			if _, _, err := p.MergeStep(0); err != nil {
				t.Fatal(err)
			}
		default: // elide versions by their last column
			v := uint64(r.Intn(4))
			et.Add(elide.Predicate{Col: keyCols + 1, Lo: v, Hi: v, MaxSeq: tuple.Watermark(seq - tuple.Seq(r.Intn(40)))})
		}
		if step == 40 {
			p = recovered(t, p, et)
		}

		ref := recovered(t, p, et)
		for q := 0; q < 40; q++ {
			id := r.Intn(ids)
			if q%4 == 0 {
				id = 150
			}
			want, wantOK, _, err1 := ref.Get(0, key(id))
			got, gotOK, _, err2 := p.Get(0, key(id))
			if err1 != nil || err2 != nil {
				t.Fatalf("step %d id %d: errors %v / %v", step, id, err1, err2)
			}
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d id %d: filtered Get %+v, %v; unfiltered %+v, %v", step, id, got, gotOK, want, wantOK)
			}
			if gotOK {
				hits++
			} else {
				misses++
			}
		}
		for _, patch := range p.Patches() {
			if patch.filter == nil {
				unfiltered++
			}
			for _, pm := range patch.Pages {
				if pm.Rows > 16 {
					long++ // writePatch stretched a page to keep a key's versions together
				}
			}
		}
	}
	if hits == 0 || misses == 0 || unfiltered == 0 || long == 0 {
		t.Fatalf("%d hits, %d misses, %d unfiltered patch-steps and %d stretched page-steps: the run covered too little",
			hits, misses, unfiltered, long)
	}
}

// TestFilterFalsePositiveRate: against a 100,000-row patch of small-integer
// two-column keys (what volume and medium keys look like), at most 3 % of
// 100,000 absent keys pass the filter, and every present key does.
func TestFilterFalsePositiveRate(t *testing.T) {
	const rows = 100_000
	facts := make([]tuple.Fact, rows)
	for i := range facts {
		facts[i] = tuple.Fact{Seq: tuple.Seq(i + 1), Cols: []uint64{uint64(i / 1000), uint64(i % 1000), 0}}
	}
	f := buildFilter(facts, 2)
	if got, want := len(f), (rows*filterBitsPerKey+63)/64; got != want {
		t.Fatalf("%d words for %d keys, want %d", got, rows, want)
	}
	for _, fact := range facts {
		if !f.mayContain(keyHash(fact.Cols, 2)) {
			t.Fatalf("present key %v ruled out", fact.Cols[:2])
		}
	}
	passed := 0
	for i := 0; i < rows; i++ {
		absent := []uint64{uint64(i / 1000), uint64(1000 + i%1000)}
		if i%2 == 1 {
			absent = []uint64{uint64(100 + i/1000), uint64(i % 1000)}
		}
		if f.mayContain(keyHash(absent, 2)) {
			passed++
		}
	}
	rate := float64(passed) / rows
	t.Logf("false-positive rate %.2f %% at %d bits per key", 100*rate, filterBitsPerKey)
	if rate > 0.03 {
		t.Fatalf("false-positive rate %.2f %%, want at most 3 %%", 100*rate)
	}
}

// TestMissedGetOpensNoPage counts page opens (a page cache that keeps
// nothing turns every open into a store read) while Get misses against six
// filtered patches: at most one open per ten lookups. The same lookups
// against the patches rebuilt from descriptors open about one page per
// patch, which is what the filters save.
func TestMissedGetOpensNoPage(t *testing.T) {
	const keysPerPatch = 512
	store := NewMemStore()
	p, err := New(Config{ID: 5, Name: "dedup-shaped", Schema: tuple.Schema{Cols: 3, KeyCols: 1}, PageRows: 64}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(3)
	seq := tuple.Seq(0)
	for patch := 0; patch < 6; patch++ {
		facts := make([]tuple.Fact, keysPerPatch)
		for i := range facts {
			seq++
			facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{r.Uint64() | 1, uint64(seq), 0}} // odd hashes
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Flush(0, seq); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(p.Patches()); n != 6 {
		t.Fatalf("%d patches, want 6", n)
	}
	opens := func(p *Pyramid, lookups int) float64 {
		p.cache = newPageCache(0)
		before := store.Reads
		for i := 0; i < lookups; i++ {
			if _, ok, _, err := p.Get(0, []uint64{r.Uint64() &^ 1}); err != nil || ok { // even: absent
				t.Fatalf("missed Get: found %v, %v", ok, err)
			}
		}
		return float64(store.Reads-before) / float64(lookups)
	}
	filtered := opens(p, 10_000)
	unfiltered := opens(recovered(t, p, nil), 1_000)
	t.Logf("page opens per missed Get: %.3f filtered, %.2f unfiltered", filtered, unfiltered)
	if filtered > 0.1 {
		t.Errorf("a missed Get opens %.3f pages on average, want at most 0.1", filtered)
	}
	if unfiltered < 5 {
		t.Errorf("unfiltered missed Get opens %.2f pages, want about one per patch: the count is not counting", unfiltered)
	}
}
