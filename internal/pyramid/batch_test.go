package pyramid

import (
	"fmt"
	"reflect"
	"testing"

	"purity/internal/elide"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// TestBatchMatchesGet drives twin single-column-key pyramids through random
// inserts, flushes, merges, elisions and recoveries (which rebuild every
// patch from its descriptor, without a key filter), and after every step
// looks a batch of keys up on both: Batch.Get on one, Pyramid.Get key by key
// on the other, in key-index order, skipping some keys as the duplicate
// search does when the recent index answers first. Every key must get the
// same fact or the same miss, the same PageStore reads in the same order and
// the same completion time, from a cold and from a warm page cache.
//
// The memtable is left with sorted prefixes and unsorted suffixes on both
// sides of memSuffixMax. Some inserts repeat an earlier fact's key and
// sequence number with another value — a tie, which Get gives to the
// prefix and then to the earlier insertion — and elisions of a value column
// make both look past dead versions. A batch repeats some keys and holds
// some no step inserts.
func TestBatchMatchesGet(t *testing.T) {
	for _, cachePages := range []int{2, 512} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cache=%d/seed=%d", cachePages, seed), func(t *testing.T) {
				diffBatch(t, cachePages, seed)
			})
		}
	}
}

func diffBatch(t *testing.T, cachePages int, seed uint64) {
	const ids = 300 // inserted ids lie in [20, 280); batches draw from [0, 300)
	ref, got := newTwin(t, 1, cachePages), newTwin(t, 1, cachePages)
	r := sim.NewRand(seed)
	seq := tuple.Seq(0)
	at := sim.Time(1000)
	var history []tuple.Fact // every fact inserted, for ties
	both := func(what string, f func(tw *twin) (sim.Time, error)) {
		t.Helper()
		d1, err1 := f(ref)
		d2, err2 := f(got)
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("%s: reference %v, %v; twin %v, %v", what, d1, err1, d2, err2)
		}
		at = d1
	}

	// What the run covered: keys the memtable answered with a long or a
	// short unsorted suffix, keys whose answer was a tie with a suffix fact,
	// keys with an elided memtable version, patch hits and misses, and
	// probes of a patch with no filter.
	var longSuffix, shortSuffix, ties, elided, patchHits, misses, unfiltered int
	var b Batch
	compare := func(step int) {
		t.Helper()
		n := r.Intn(64) + 1
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(r.Intn(ids))
			if i > 0 && r.Intn(4) == 0 {
				keys[i] = keys[r.Intn(i)] // a repeated block
			}
		}
		if r.Intn(3) == 0 {
			ref.p.cache, got.p.cache = newPageCache(cachePages), newPageCache(cachePages)
		}
		got.p.mu.RLock()
		suffix := len(got.p.mem) - got.p.sortedLen
		got.p.mu.RUnlock()
		memLive, memTie, memElided := memShape(got)
		for _, patch := range got.p.Patches() {
			if patch.unfiltered() {
				unfiltered++
				break
			}
		}

		got.p.GetBatch(&b, keys)
		done := at
		for i, key := range keys {
			if r.Intn(5) == 0 {
				continue // the recent index answered this one
			}
			ref.store.reads, got.store.reads = nil, nil
			want, wantOK, wantDone, wantErr := ref.p.Get(done, []uint64{key})
			have, haveOK, haveDone, haveErr := b.Get(done, i)
			where := fmt.Sprintf("step %d key %d (%d)", step, i, key)
			if wantErr != nil || haveErr != nil {
				t.Fatalf("%s: errors %v / %v", where, wantErr, haveErr)
			}
			if haveOK {
				have = have.Clone()
			}
			if wantOK != haveOK || !reflect.DeepEqual(want, have) {
				t.Fatalf("%s: batch found %v %+v, Get %v %+v", where, haveOK, have, wantOK, want)
			}
			if !reflect.DeepEqual(ref.store.reads, got.store.reads) {
				t.Fatalf("%s: page reads differ\nGet   %v\nbatch %v", where, ref.store.reads, got.store.reads)
			}
			if wantDone != haveDone {
				t.Fatalf("%s: completion time %v, Get %v", where, haveDone, wantDone)
			}
			done = wantDone
			switch {
			case !wantOK:
				misses++
			case !memLive[key]:
				patchHits++
			case suffix > memSuffixMax:
				longSuffix++
			default:
				shortSuffix++
			}
			if memTie[key] {
				ties++
			}
			if memElided[key] {
				elided++
			}
		}
		b.Reset()
	}

	for step := 0; step < 80; step++ {
		op := r.Intn(12)
		if step == 40 {
			op = 9 // at least one recovery, so patches without filters are probed
		}
		switch {
		case op < 6: // insert; some facts tie an earlier one's key and seq
			facts := make([]tuple.Fact, r.Intn(100)+1)
			for i := range facts {
				if len(history) > 0 && r.Intn(4) == 0 {
					old := history[len(history)-1-r.Intn(min(len(history), 40))]
					facts[i] = tuple.Fact{Seq: old.Seq, Cols: []uint64{old.Cols[0], old.Cols[1], old.Cols[2] + 1 + uint64(r.Intn(3))}}
					continue
				}
				seq++
				facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{uint64(20 + r.Intn(ids-40)), uint64(seq), uint64(r.Intn(4))}}
			}
			history = append(history, facts...)
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
		default: // elide older versions by the value column
			v := uint64(r.Intn(6))
			pred := elide.Predicate{Col: 2, Lo: v, Hi: v, MaxSeq: seq - tuple.Seq(r.Intn(40))}
			ref.et.Add(pred)
			got.et.Add(pred)
		}
		compare(step)
	}
	t.Logf("memtable answers with suffix > memSuffixMax %d, ≤ memSuffixMax %d; ties %d; elided versions %d; patch hits %d; misses %d; steps with an unfiltered patch %d",
		longSuffix, shortSuffix, ties, elided, patchHits, misses, unfiltered)
	if longSuffix == 0 || shortSuffix == 0 || ties == 0 || elided == 0 || patchHits == 0 || misses == 0 || unfiltered == 0 {
		t.Fatal("the run covered too little")
	}
}

// memShape reports, per key in tw's memtable, whether it has a live
// version, whether its newest live versions are a tie that involves an
// unsorted-suffix fact, and whether any of its versions is elided.
func memShape(tw *twin) (live, tie, elided map[uint64]bool) {
	tw.p.mu.RLock()
	defer tw.p.mu.RUnlock()
	type best struct {
		seq      tuple.Seq
		n        int
		inSuffix bool
	}
	newest := map[uint64]best{}
	elided = map[uint64]bool{}
	for i, f := range tw.p.mem {
		key := f.Cols[0]
		if tw.p.elided(f) {
			elided[key] = true
			continue
		}
		cur, ok := newest[key]
		switch {
		case !ok || f.Seq > cur.seq:
			newest[key] = best{seq: f.Seq, n: 1, inSuffix: i >= tw.p.sortedLen}
		case f.Seq == cur.seq:
			newest[key] = best{seq: f.Seq, n: cur.n + 1, inSuffix: cur.inSuffix || i >= tw.p.sortedLen}
		}
	}
	live, tie = map[uint64]bool{}, map[uint64]bool{}
	for key, b := range newest {
		live[key] = true
		tie[key] = b.n > 1 && b.inSuffix
	}
	return live, tie, elided
}

// BenchmarkDedupProbes is the dedup index as a write of unique data meets
// it: each op inserts the write's eight sampled hashes, then looks up its
// 64 block hashes, every one absent, against a memtable of up to 4,096
// facts and six filtered patches; the flushes and merges that keep it so
// are not timed. "batch" is the write path's GetBatch and Batch.Get; "get"
// is Get once per hash, the lookup it replaced, kept as the reference.
func BenchmarkDedupProbes(b *testing.B) {
	for _, batched := range []bool{true, false} {
		name := map[bool]string{true: "batch", false: "get"}[batched]
		b.Run(name, func(b *testing.B) {
			p, err := New(Config{ID: 1, Name: "dedup", Schema: tuple.Schema{Cols: 5, KeyCols: 1}}, NewMemStore(), nil)
			if err != nil {
				b.Fatal(err)
			}
			r := sim.NewRand(1)
			seq := tuple.Seq(0)
			insert := func(n int) {
				facts := make([]tuple.Fact, n)
				for i := range facts {
					seq++
					facts[i] = tuple.Fact{Seq: seq, Cols: []uint64{r.Uint64(), 1, 2, 3, 4}}
				}
				if err := p.Insert(facts); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				insert(20000)
				if _, err := p.Flush(0, seq); err != nil {
					b.Fatal(err)
				}
			}
			var batch Batch
			keys := make([]uint64, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				insert(8)
				if p.MemRows() >= 4096 { // the background step's work, untimed
					b.StopTimer()
					if _, err := p.Flush(0, seq); err != nil {
						b.Fatal(err)
					}
					if _, err := p.Maintain(0, 6); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for j := range keys {
					keys[j] = r.Uint64()
				}
				if batched {
					p.GetBatch(&batch, keys)
				}
				for j := range keys {
					var ok bool
					if batched {
						_, ok, _, err = batch.Get(0, j)
					} else {
						_, ok, _, err = p.Get(0, keys[j:j+1])
					}
					if ok || err != nil {
						b.Fatalf("absent key found: %v", err)
					}
				}
			}
		})
	}
}
