package pyramid

import (
	"sync"
	"sync/atomic"
	"testing"

	"purity/internal/tuple"
)

// TestConcurrentReadersOneMutator is what check.sh's -race line runs for
// this package: Get, GetFloor, GetCeil and ScanVersions on several
// goroutines while one goroutine inserts, flushes and merges (the engine
// serializes mutators under Array.mu; readers are what may overlap them).
// Every key, once published, must be found by every kind of read from then
// on, whether it sits in the memtable, in a patch being installed or in a
// merge's output — a reader's view of memtable plus patch list is one
// snapshot.
func TestConcurrentReadersOneMutator(t *testing.T) {
	const (
		groups  = 4
		perStep = 8
		steps   = 150
		readers = 4
	)
	p, err := New(Config{ID: 7, Name: "conc", Schema: tuple.Schema{Cols: 3, KeyCols: 2}, PageRows: 16}, NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// published is the highest n such that keys (g, 2i) for all i < n exist
	// in every group g. Only even second columns are ever inserted.
	var published atomic.Int64
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
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
				switch i % 4 {
				case 0:
					if f, ok, _, err := p.Get(0, []uint64{g, key}); err != nil || !ok || f.Cols[1] != key {
						t.Errorf("Get(%d,%d) = %+v, %v, %v", g, key, f, ok, err)
						return
					}
				case 1: // the odd key above has the even one as its floor
					if f, ok, _, err := p.GetFloor(0, []uint64{g}, key+1); err != nil || !ok || f.Cols[1] != key {
						t.Errorf("GetFloor(%d,%d) = %+v, %v, %v", g, key+1, f, ok, err)
						return
					}
				case 2:
					want := key
					if key > 0 {
						key-- // the odd key below has the even one as its ceiling
					}
					if f, ok, _, err := p.GetCeil(0, []uint64{g}, key); err != nil || !ok || f.Cols[1] != want {
						t.Errorf("GetCeil(%d,%d) = %+v, %v, %v", g, key, f, ok, err)
						return
					}
				case 3:
					// Every published key of the window, ascending, newest
					// version first.
					lo := key
					hi := min(key+40, (n-1)*2)
					next, lastSeq := lo, tuple.Seq(0)
					_, err := p.ScanVersions(0, []uint64{g, lo}, []uint64{g, hi}, func(f tuple.Fact) bool {
						switch {
						case f.Cols[1] == next:
							next += 2
						case f.Cols[1] == next-2 && f.Seq < lastSeq:
						default:
							t.Errorf("ScanVersions(%d,[%d,%d]): got key %d seq %d, expected key %d or an older version of %d",
								g, lo, hi, f.Cols[1], f.Seq, next, next-2)
							return false
						}
						lastSeq = f.Seq
						return true
					})
					if err != nil || (next <= hi && !t.Failed()) {
						t.Errorf("ScanVersions(%d,[%d,%d]) stopped before key %d: %v", g, lo, hi, next, err)
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
				facts = append(facts, tuple.Fact{Seq: seq, Cols: []uint64{g, (base + i) * 2, uint64(seq)}})
			}
			if step > 0 { // a second version of an old key
				seq++
				facts = append(facts, tuple.Fact{Seq: seq, Cols: []uint64{g, uint64(step-1) * 2, uint64(seq)}})
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
}
