package pyramid

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// TestMemFilterMatchesScan drives a pyramid through random Insert batchings
// (so carries fall differently and the memtable's filter is outgrown and
// rebuilt), elisions, flushes that retain facts, merges, recoveries (the
// recovered helper) and rejected SchemaError batches. After every step it
// checks the memtable against a brute-force scan of the facts it should
// hold: every one passes the filter; for keys present and absent, the exact
// memtable search (memRun, what Get reads) returns the scan's versions, newest
// first with ties in insertion order; Get answers with the scan's newest live
// version when there is one; and GetBatch, for single-column keys, answers
// every key as the scan does.
func TestMemFilterMatchesScan(t *testing.T) {
	for _, keyCols := range []int{1, 2} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("keycols=%d/seed=%d", keyCols, seed), func(t *testing.T) {
				memFilterAgainstScan(t, keyCols, seed)
			})
		}
	}
}

func memFilterAgainstScan(t *testing.T, keyCols int, seed uint64) {
	const ids = 600 // inserted ids lie in [0, 400); lookups range over [0, 600)
	key := func(id int) []uint64 {
		if keyCols == 1 {
			return []uint64{uint64(id)}
		}
		return []uint64{uint64(id / 100), uint64(id % 100)}
	}
	et := elide.NewTable()
	p, err := New(Config{ID: 9, Name: "memfilter", Schema: tuple.Schema{Cols: keyCols + 2, KeyCols: keyCols}, PageRows: 32},
		NewMemStore(), et)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(seed)
	seq := tuple.Seq(0)
	var model []tuple.Fact // the memtable's facts, in insertion order

	// What the run covered.
	var grown, retained, recoveries, rejected, ruledOut, memHits, ties int
	var b Batch
	check := func(step int) {
		t.Helper()
		for _, f := range model {
			if !p.memFilter.mayContain(keyHash(f.Cols, keyCols)) {
				t.Fatalf("step %d: the memtable's filter rules out its own key %v", step, f.Cols[:keyCols])
			}
		}
		if p.memFilterFacts > memFilterMinFacts {
			grown++
		}
		lookups := make([]int, r.Intn(64)+1)
		for i := range lookups {
			lookups[i] = r.Intn(ids)
		}
		if keyCols == 1 {
			keys := make([]uint64, len(lookups))
			for i, id := range lookups {
				keys[i] = uint64(id)
			}
			p.GetBatch(&b, keys)
		}
		lookupsRuledOut := 0
		for i, id := range lookups {
			k := key(id)
			if !p.memFilter.mayContain(keyHash(k, keyCols)) {
				lookupsRuledOut++
			}
			var want []tuple.Fact
			for _, f := range model {
				if tuple.CompareKeys(f.Cols, k, keyCols) == 0 {
					want = append(want, f)
				}
			}
			slices.SortStableFunc(want, func(a, b tuple.Fact) int { return int(b.Seq) - int(a.Seq) })
			if len(want) > 1 && want[0].Seq == want[1].Seq {
				ties++
			}
			var wantLive tuple.Fact
			for _, f := range want {
				if !p.elided(f) {
					wantLive = f
					break
				}
			}

			got, _ := p.memRun(nil, k, keyHash(k, keyCols), exact)
			if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d key %v: memtable search %+v, scan %+v", step, k, got, want)
			}
			if wantLive.Cols != nil {
				memHits++
				f, ok, _, err := p.Get(0, k)
				if err != nil || !ok || !reflect.DeepEqual(f, wantLive) {
					t.Fatalf("step %d key %v: Get %+v, %v, %v; scan's newest live %+v", step, k, f, ok, err, wantLive)
				}
			}
			if keyCols == 1 && !reflect.DeepEqual(b.mem[i], wantLive) {
				t.Fatalf("step %d key %v: GetBatch %+v, scan's newest live %+v", step, k, b.mem[i], wantLive)
			}
		}
		if keyCols == 1 && b.Filtered() != lookupsRuledOut {
			t.Fatalf("step %d: GetBatch counted %d keys filtered, the filter rules out %d", step, b.Filtered(), lookupsRuledOut)
		}
		ruledOut += lookupsRuledOut
		b.Reset()
	}

	for step := 0; step < 120; step++ {
		switch op := r.Intn(20); {
		case op < 12: // insert; some facts tie an earlier one's key and seq
			facts := make([]tuple.Fact, r.Intn(300)+1)
			for i := range facts {
				if len(model) > 0 && r.Intn(8) == 0 {
					old := model[r.Intn(len(model))]
					facts[i] = tuple.Fact{Seq: old.Seq, Cols: append(slices.Clone(old.Cols[:keyCols]), old.Cols[keyCols], old.Cols[keyCols+1]+1)}
					continue
				}
				seq++
				facts[i] = tuple.Fact{Seq: seq, Cols: append(key(r.Intn(400)), uint64(seq), uint64(r.Intn(4)))}
			}
			if err := p.Insert(facts); err != nil {
				t.Fatal(err)
			}
			model = append(model, facts...)
		case op < 15: // flush, keeping up to 1,500 facts
			through := seq - tuple.Seq(r.Intn(1500))
			if _, err := p.Flush(0, through); err != nil {
				t.Fatal(err)
			}
			model = slices.DeleteFunc(model, func(f tuple.Fact) bool { return f.Seq <= through })
			if len(model) > 0 {
				retained++
			}
		case op < 16:
			if _, _, err := p.MergeStep(0); err != nil {
				t.Fatal(err)
			}
		case op < 17:
			p = recovered(t, p, et)
			recoveries++
		case op < 18: // a batch with one fact of the wrong width is refused whole
			seq++
			bad := []tuple.Fact{
				{Seq: seq, Cols: append(key(r.Intn(400)), uint64(seq), 0)},
				{Seq: seq, Cols: key(r.Intn(400))},
			}
			var se *SchemaError
			if err := p.Insert(bad); !errors.As(err, &se) {
				t.Fatalf("step %d: a fact of %d columns was not refused: %v", step, keyCols, err)
			}
			rejected++
		default: // elide versions by their last column
			v := uint64(r.Intn(4))
			et.Add(elide.Predicate{Col: keyCols + 1, Lo: v, Hi: v, MaxSeq: tuple.Watermark(seq - tuple.Seq(r.Intn(200)))})
		}
		check(step)
	}
	t.Logf("steps with a grown filter %d, flushes that retained facts %d, recoveries %d, refused batches %d, keys ruled out %d, memtable hits %d, ties %d",
		grown, retained, recoveries, rejected, ruledOut, memHits, ties)
	if grown == 0 || retained == 0 || recoveries == 0 || rejected == 0 || ruledOut == 0 || memHits == 0 || ties == 0 {
		t.Fatal("the run covered too little")
	}
}

// TestMemFilterBesideInsertAndFlush runs GetBatch readers beside one
// mutator whose inserts outgrow the memtable's filter and whose flushes
// rebuild it over the facts they retain. A published key must be found on
// every read, in the memtable or a patch, and a key no step inserts never.
// check.sh runs it under -race with -short, so it is sized to run whole
// there.
func TestMemFilterBesideInsertAndFlush(t *testing.T) {
	const (
		steps   = 60
		readers = 3
	)
	p, err := New(Config{ID: 8, Name: "memfilter-race", Schema: tuple.Schema{Cols: 2, KeyCols: 1}, PageRows: 64}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Keys are 2n for n < published; odd keys are never inserted. reads
	// counts the readers' batches: the mutator waits for a few after each
	// step, so their batches interleave with every insert and flush.
	var published, reads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := sim.NewRand(uint64(rd) + 1)
			var b Batch
			keys := make([]uint64, 16)
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := published.Load()
				if n == 0 {
					continue
				}
				for i := range keys {
					keys[i] = uint64(r.Int63n(n))*2 + uint64(i%2) // even: published, odd: absent
				}
				p.GetBatch(&b, keys)
				for i, k := range keys {
					f, ok, _, err := b.Get(0, i)
					if err != nil || ok != (k%2 == 0) || ok && (f.Cols[0] != k || f.Cols[1] != uint64(f.Seq)) {
						t.Errorf("GetBatch key %d: %+v, %v, %v", k, f, ok, err)
						return
					}
				}
				b.Reset()
				reads.Add(1)
			}
		}(rd)
	}

	r := sim.NewRand(99)
	seq := tuple.Seq(0)
	next := uint64(0)
	for step := 0; step < steps && !t.Failed(); step++ {
		facts := make([]tuple.Fact, r.Intn(300)+1)
		for i := range facts {
			seq++
			facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{next * 2, uint64(seq)}}
			next++
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		published.Store(int64(next))
		if step%6 == 5 {
			if _, err := p.Flush(0, seq-tuple.Seq(r.Intn(400))); err != nil {
				t.Fatal(err)
			}
		}
		for want := reads.Load() + readers; reads.Load() < want && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if len(p.Patches()) == 0 || p.memFilterFacts <= memFilterMinFacts {
		t.Fatalf("%d patches, filter sized for %d facts: the readers saw no flush or no growth", len(p.Patches()), p.memFilterFacts)
	}
}

// TestWarmInsertAllocatesNoFilter: once the memtable's filter has grown to
// a memtable's size, a flush rebuilds it at that size in the same storage,
// and inserts that grow the memtable back to that size keep it there: a
// warm Insert allocates nothing for its filter (nor, with the memtable's
// own slices already grown, for anything else).
func TestWarmInsertAllocatesNoFilter(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	p, err := New(Config{ID: 4, Name: "warm", Schema: tuple.Schema{Cols: 5, KeyCols: 1}}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(3)
	seq := tuple.Seq(0)
	batch := func() []tuple.Fact {
		facts := make([]tuple.Fact, 8)
		for i := range facts {
			seq++
			facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{r.Uint64(), 1, 2, 3, 4}}
		}
		return facts
	}
	const facts = 4096
	for i := 0; i < facts/8; i++ {
		if err := p.Insert(batch()); err != nil {
			t.Fatal(err)
		}
	}
	if p.memFilterFacts != facts {
		t.Fatalf("filter sized for %d facts after %d inserted, want %d", p.memFilterFacts, facts, facts)
	}
	storage := &p.memFilter[0]
	if _, err := p.Flush(0, seq); err != nil {
		t.Fatal(err)
	}
	if p.memFilterFacts != facts || &p.memFilter[0] != storage {
		t.Fatalf("after a flush: filter sized for %d facts, in new storage %v; want %d facts in the old storage",
			p.memFilterFacts, &p.memFilter[0] != storage, facts)
	}
	for i, w := range p.memFilter {
		if w != 0 {
			t.Fatalf("after a flush that kept no fact, filter word %d is %#x, want 0", i, w)
		}
	}

	const runs = facts/8 - 1 // the memtable refills to what it held
	batches := make([][]tuple.Fact, runs+1)
	for i := range batches {
		batches[i] = batch()
	}
	p.mem = make([]tuple.Fact, 0, facts)
	p.memScratch = make([]tuple.Fact, 0, facts)
	p.runEnds = make([]int, 0, 64)
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := p.Insert(batches[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a warm Insert allocated %.2f times", allocs)
	}
	if p.memFilterFacts != facts || &p.memFilter[0] != storage {
		t.Fatalf("filter sized for %d facts, in new storage %v: want %d facts, in the old storage",
			p.memFilterFacts, &p.memFilter[0] != storage, facts)
	}
}

// BenchmarkGetBatchMiss is the memtable pass of a dedup probe on unique
// data: GetBatch of 64 keys, none present, against a memtable of 4,096
// facts in several runs and no patches.
func BenchmarkGetBatchMiss(b *testing.B) {
	p, err := New(Config{ID: 1, Name: "dedup", Schema: tuple.Schema{Cols: 5, KeyCols: 1}}, NewMemStore(), nil)
	if err != nil {
		b.Fatal(err)
	}
	r := sim.NewRand(1)
	seq := tuple.Seq(0)
	for n := 0; n < 4096; n += 8 {
		facts := make([]tuple.Fact, 8)
		for i := range facts {
			seq++
			facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{r.Uint64(), 1, 2, 3, 4}}
		}
		if err := p.Insert(facts); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	var batch Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GetBatch(&batch, keys)
	}
	b.StopTimer()
	for i := range keys {
		if batch.mem[i].Cols != nil {
			b.Fatalf("absent key %d found", keys[i])
		}
	}
}
