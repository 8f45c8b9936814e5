package pyramid

import (
	"math/bits"
	"slices"
	"testing"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// TestMemtableTiesKeepInsertionOrder pins the memtable's tie rule on its
// own: one key is inserted again and again at one sequence number, with
// increasing values, among other keys, in batches of one to five facts, so
// the carries merge its versions across runs. After every Insert, Get and
// Batch.Get must return the first value inserted and ScanVersions every
// value in insertion order. The references and the twin tests read the
// same memtable arrangement on both sides, so they cannot tell a merge that
// puts the newer run's fact first.
func TestMemtableTiesKeepInsertionOrder(t *testing.T) {
	const hot, hotSeq = 1000, 5
	p, err := New(Config{ID: 1, Name: "ties", Schema: tuple.Schema{Cols: 2, KeyCols: 1}}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(1)
	seq := tuple.Seq(hotSeq)
	var values []uint64 // the hot key's values, in insertion order
	var b Batch
	for step := 0; step < 300; step++ {
		facts := make([]tuple.Fact, 1+r.Intn(5))
		first := r.Intn(len(facts))
		for i := range facts {
			if i == first || r.Intn(4) == 0 {
				values = append(values, uint64(len(values)+1))
				facts[i] = tuple.Fact{Seq: hotSeq, Cols: []uint64{hot, values[len(values)-1]}}
				continue
			}
			seq++
			facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{uint64(r.Intn(hot)), uint64(seq)}} // never the hot key
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}

		if f, ok, _, err := p.Get(0, []uint64{hot}); err != nil || !ok || f.Cols[1] != values[0] {
			t.Fatalf("step %d: Get = %v %v %v, want the first value inserted, %d", step, f, ok, err, values[0])
		}
		p.GetBatch(&b, []uint64{hot + 1, hot})
		if f, ok, _, err := b.Get(0, 1); err != nil || !ok || f.Cols[1] != values[0] {
			t.Fatalf("step %d: Batch.Get = %v %v %v, want the first value inserted, %d", step, f, ok, err, values[0])
		}
		b.Reset()
		var got []uint64
		if _, err := p.ScanVersions(0, []uint64{hot}, []uint64{hot}, func(f tuple.Fact) bool {
			got = append(got, f.Cols[1])
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, values) {
			t.Fatalf("step %d: ScanVersions gave values %v, want insertion order %v", step, got, values)
		}
	}
}

// TestMemtableRunsStayLogarithmic pins the run bound every memtable lookup
// pays for: after inserts of 1, 8 and 64 facts and flushes that retain
// some, every run is sorted, the runs cover the memtable end to end, and
// there are at most ⌊log₂ MemRows⌋ + 1 of them.
func TestMemtableRunsStayLogarithmic(t *testing.T) {
	p, err := New(Config{ID: 1, Name: "runs", Schema: tuple.Schema{Cols: 3, KeyCols: 2}}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(2)
	seq := tuple.Seq(0)
	maxRuns := 0
	for step := 0; step < 400; step++ {
		if step%50 == 49 {
			if _, err := p.Flush(0, seq-tuple.Seq(r.Intn(40))); err != nil {
				t.Fatal(err)
			}
		} else {
			facts := make([]tuple.Fact, []int{1, 8, 64}[r.Intn(3)])
			for i := range facts {
				seq++
				facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{uint64(r.Intn(4)), uint64(r.Intn(500)), uint64(seq)}}
			}
			if err := p.Insert(facts); err != nil {
				t.Fatal(err)
			}
		}

		p.mu.RLock()
		n, ends := len(p.mem), slices.Clone(p.runEnds)
		for i := range ends {
			if i > 0 && ends[i] <= ends[i-1] || i == 0 && ends[0] <= 0 {
				t.Fatalf("step %d: run ends %v do not ascend from 0", step, ends)
			}
			if run := p.run(i); !slices.IsSortedFunc(run, factOrder(2)) {
				t.Fatalf("step %d: run %d of %v is not sorted", step, i, ends)
			}
		}
		p.mu.RUnlock()
		if len(ends) > 0 && ends[len(ends)-1] != n || len(ends) == 0 && n != 0 {
			t.Fatalf("step %d: run ends %v do not cover a memtable of %d facts", step, ends, n)
		}
		if len(ends) > bits.Len(uint(n)) {
			t.Fatalf("step %d: %d runs over %d facts, want at most ⌊log₂ n⌋ + 1 = %d", step, len(ends), n, bits.Len(uint(n)))
		}
		maxRuns = max(maxRuns, len(ends))
	}
	if maxRuns < 4 {
		t.Fatalf("at most %d runs: the test never stacked runs deep", maxRuns)
	}
}
