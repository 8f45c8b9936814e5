package pyramid

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"purity/internal/sim"
	"purity/internal/tuple"
)

// TestConcurrentReadersOneMutator is what check.sh's -race line runs for
// this package: Get, GetFloor, GetCeil, ScanVersions and Visit on several
// goroutines while one goroutine inserts, flushes and merges (the engine
// serializes mutators under Array.mu; readers are what may overlap them).
// Every key, once published, must be found by every kind of read from then
// on, whether it sits in the memtable, in a patch being installed or in a
// merge's output — a reader's view of memtable plus patch list is one
// snapshot. Get also looks up keys no step inserts, which the key filters
// of the patches being flushed and merged must rule out or pass, never
// turn into a hit. A key is (group, n) in two columns, or group<<32 | n in
// one, where GetBatch looks the same two keys up as Get.
func TestConcurrentReadersOneMutator(t *testing.T) {
	for _, keyCols := range []int{2, 1} {
		t.Run(fmt.Sprintf("keycols=%d", keyCols), func(t *testing.T) {
			concurrentReaders(t, keyCols)
		})
	}
}

func concurrentReaders(t *testing.T, keyCols int) {
	const (
		groups  = 4
		perStep = 8
		steps   = 150
		readers = 4
	)
	p, err := New(Config{ID: 7, Name: "conc", Schema: tuple.Schema{Cols: keyCols + 1, KeyCols: keyCols}, PageRows: 16}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := func(g, n uint64) []uint64 {
		if keyCols == 2 {
			return []uint64{g, n}
		}
		return []uint64{g<<32 | n}
	}
	nOf := func(f tuple.Fact) uint64 { return f.Cols[keyCols-1] & (1<<32 - 1) }
	seqCol := keyCols // the column that carries each fact's seq
	// published is the highest n such that keys (g, 2i) for all i < n exist
	// in every group g. Only even second columns are ever inserted.
	var published atomic.Int64
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var b Batch
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := uint64(published.Load())
				if n == 0 {
					continue
				}
				g := uint64((i + r) % groups)
				key := uint64(i*7+r) % n * 2
				switch i % 5 {
				case 0: // a published key, then the odd key after it, which no step inserts
					if f, ok, _, err := p.Get(0, keyOf(g, key)); err != nil || !ok || nOf(f) != key || f.Cols[seqCol] != uint64(f.Seq) {
						t.Errorf("Get(%d,%d) = %+v, %v, %v", g, key, f, ok, err)
						return
					}
					if f, ok, _, err := p.Get(0, keyOf(g, key+1)); err != nil || ok {
						t.Errorf("Get(%d,%d) of an absent key = %+v, %v, %v", g, key+1, f, ok, err)
						return
					}
					if keyCols > 1 {
						break
					}
					p.GetBatch(&b, []uint64{keyOf(g, key)[0], keyOf(g, key+1)[0]})
					if f, ok, _, err := b.Get(0, 0); err != nil || !ok || nOf(f) != key || f.Cols[seqCol] != uint64(f.Seq) {
						t.Errorf("GetBatch(%d,%d) = %+v, %v, %v", g, key, f, ok, err)
						return
					}
					if f, ok, _, err := b.Get(0, 1); err != nil || ok {
						t.Errorf("GetBatch(%d,%d) of an absent key = %+v, %v, %v", g, key+1, f, ok, err)
						return
					}
					b.Reset()
				case 1: // the odd key above has the even one as its floor
					tk := keyOf(g, key+1)
					if f, ok, _, err := p.GetFloor(0, tk[:keyCols-1], tk[keyCols-1]); err != nil || !ok || nOf(f) != key {
						t.Errorf("GetFloor(%d,%d) = %+v, %v, %v", g, key+1, f, ok, err)
						return
					}
				case 2:
					want := key
					if key > 0 {
						key-- // the odd key below has the even one as its ceiling
					}
					tk := keyOf(g, key)
					if f, ok, _, err := p.GetCeil(0, tk[:keyCols-1], tk[keyCols-1]); err != nil || !ok || nOf(f) != want {
						t.Errorf("GetCeil(%d,%d) = %+v, %v, %v", g, key, f, ok, err)
						return
					}
				case 3, 4:
					// Every published key of the window, ascending, newest
					// version first, each fact whole (column seqCol is its seq);
					// Visit's facts are borrowed, ScanVersions' owned.
					scan, name := p.ScanVersions, "ScanVersions"
					if i%5 == 4 {
						scan, name = func(at sim.Time, lo, hi []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
							return p.Visit(at, lo, hi, true, fn)
						}, "Visit"
					}
					lo := key
					hi := min(key+40, (n-1)*2)
					next, lastSeq := lo, tuple.Seq(0)
					_, err := scan(0, keyOf(g, lo), keyOf(g, hi), func(f tuple.Fact) bool {
						switch {
						case f.Cols[seqCol] != uint64(f.Seq):
							t.Errorf("%s(%d,[%d,%d]): key %d seq %d carries %d",
								name, g, lo, hi, nOf(f), f.Seq, f.Cols[seqCol])
							return false
						case nOf(f) == next:
							next += 2
						case nOf(f) == next-2 && f.Seq < lastSeq:
						default:
							t.Errorf("%s(%d,[%d,%d]): got key %d seq %d, expected key %d or an older version of %d",
								name, g, lo, hi, nOf(f), f.Seq, next, next-2)
							return false
						}
						lastSeq = f.Seq
						return true
					})
					if err != nil || (next <= hi && !t.Failed()) {
						t.Errorf("%s(%d,[%d,%d]) stopped before key %d: %v", name, g, lo, hi, next, err)
						return
					}
				}
			}
		}(r)
	}

	seq := tuple.Seq(0)
	for step := 0; step < steps && !t.Failed(); step++ {
		var facts []tuple.Fact
		base := uint64(step * perStep)
		for g := uint64(0); g < groups; g++ {
			for i := uint64(0); i < perStep; i++ {
				seq++
				facts = append(facts, tuple.Fact{Seq: seq, Cols: append(keyOf(g, (base+i)*2), uint64(seq))})
			}
			if step > 0 { // a second version of an old key
				seq++
				facts = append(facts, tuple.Fact{Seq: seq, Cols: append(keyOf(g, uint64(step-1)*2), uint64(seq))})
			}
		}
		if err := p.Insert(facts); err != nil {
			t.Fatal(err)
		}
		published.Store(int64(base + perStep))
		if step%5 == 4 {
			if _, err := p.Flush(0, seq-3); err != nil { // a few facts stay behind in the memtable
				t.Fatal(err)
			}
		}
		if step%15 == 14 {
			if _, _, err := p.MergeStep(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if len(p.Patches()) < 2 {
		t.Fatalf("only %d patches: the readers never raced a merge", len(p.Patches()))
	}
	if err := p.VerifyCachedPages(); err != nil {
		t.Fatal(err)
	}
}
