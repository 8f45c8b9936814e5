package iosched

import (
	"sort"
	"sync"
	"testing"

	"purity/internal/sim"
)

func TestTrackerPercentile(t *testing.T) {
	tr := NewTracker(100)
	if tr.Percentile(95) != 0 {
		t.Fatal("empty tracker nonzero")
	}
	for i := 1; i <= 100; i++ {
		tr.Record(sim.Time(i))
	}
	if got := tr.Percentile(95); got != 96 {
		t.Fatalf("p95 = %v, want 96", got)
	}
	if got := tr.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if tr.Count() != 100 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

func TestTrackerSlidingWindow(t *testing.T) {
	tr := NewTracker(10)
	for i := 0; i < 10; i++ {
		tr.Record(1000)
	}
	// New regime: window slides, old values age out.
	for i := 0; i < 10; i++ {
		tr.Record(1)
	}
	if got := tr.Percentile(95); got != 1 {
		t.Fatalf("p95 after regime change = %v", got)
	}
	if tr.Count() != 10 {
		t.Fatalf("Count = %d", tr.Count())
	}
}

// hedges reports whether the policy races a read that has been outstanding
// for lat.
func hedges(p Policy, tr *Tracker, lat sim.Time, sloThreatened bool) bool {
	after, ok := p.HedgeAfter(tr, sloThreatened)
	return ok && lat > after
}

func TestPolicyShouldHedge(t *testing.T) {
	p := DefaultPolicy()
	tr := NewTracker(128)
	// Not enough samples: never hedge.
	tr.Record(100)
	if hedges(p, tr, sim.Second, false) {
		t.Fatal("hedged without history")
	}
	for i := 0; i < 128; i++ {
		tr.Record(100 * sim.Microsecond)
	}
	if hedges(p, tr, 90*sim.Microsecond, false) {
		t.Fatal("hedged a fast read")
	}
	if !hedges(p, tr, 5*sim.Millisecond, false) {
		t.Fatal("did not hedge a slow read")
	}
	// Hedging disabled.
	off := Policy{HedgePercentile: 0}
	if hedges(off, tr, sim.Second, false) {
		t.Fatal("disabled policy hedged")
	}
}

func TestPolicyShouldHedgeUnderSLO(t *testing.T) {
	// Window: 93 fast reads, 7 slow reads — p90 lands in the fast tier,
	// p95 in the slow one. A latency between them hedges only while the
	// SLO is threatened.
	p := Policy{HedgePercentile: 95, SLOHedgePercentile: 90, MinHedgeSamples: 64}
	tr := NewTracker(100)
	for i := 0; i < 93; i++ {
		tr.Record(100 * sim.Microsecond)
	}
	for i := 0; i < 7; i++ {
		tr.Record(10 * sim.Millisecond)
	}
	lat := 1 * sim.Millisecond // above p90 (100µs), below p95 (10ms)
	if hedges(p, tr, lat, false) {
		t.Fatal("hedged below p95 with SLO healthy")
	}
	if !hedges(p, tr, lat, true) {
		t.Fatal("did not hedge above p90 with SLO threatened")
	}
	// Without the SLO percentile the threatened bit changes nothing.
	plain := Policy{HedgePercentile: 95, MinHedgeSamples: 64}
	if hedges(plain, tr, lat, true) {
		t.Fatal("policy without SLOHedgePercentile hedged early")
	}
}

func TestGovernor(t *testing.T) {
	g := NewGovernor(sim.Millisecond, 256)
	if g.Threatened() {
		t.Fatal("cold governor threatened")
	}
	// Below the minimum sample count: never threatened, even if slow.
	for i := 0; i < 63; i++ {
		g.RecordRead(10 * sim.Millisecond)
	}
	if g.Threatened() {
		t.Fatal("threatened without minimum context")
	}
	g.RecordRead(10 * sim.Millisecond)
	if !g.Threatened() {
		t.Fatal("p99.9 over budget not reported")
	}
	if g.P999() <= sim.Millisecond {
		t.Fatalf("P999 = %v", g.P999())
	}
	// Fast reads age the slow regime out of the window.
	for i := 0; i < 256; i++ {
		g.RecordRead(100 * sim.Microsecond)
	}
	if g.Threatened() {
		t.Fatal("still threatened after recovery")
	}
	g.NoteDeferral()
	g.NoteDeferral()
	if g.Deferrals() != 2 {
		t.Fatalf("Deferrals = %d", g.Deferrals())
	}
}

func TestGovernorDisabledAndNil(t *testing.T) {
	off := NewGovernor(-1, 16)
	for i := 0; i < 128; i++ {
		off.RecordRead(sim.Second)
	}
	if off.Threatened() {
		t.Fatal("disabled governor threatened")
	}
	var nilGov *Governor
	nilGov.RecordRead(sim.Second)
	nilGov.NoteDeferral()
	if nilGov.Threatened() || nilGov.Deferrals() != 0 || nilGov.Budget() != 0 || nilGov.P999() != 0 {
		t.Fatal("nil governor not inert")
	}
}

// sortedWindow is the tracker's definition, as first written: copy the last
// `window` observations and sort them; a percentile indexes the result.
func sortedWindow(history []sim.Time, window int) []sim.Time {
	if len(history) > window {
		history = history[len(history)-window:]
	}
	s := append([]sim.Time(nil), history...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// TestTrackerMatchesSortedCopy: after every Record of random streams longer
// than the window — few distinct values, so duplicates are evicted and
// inserted all the time, and the ring wraps several times — every
// percentile the engine asks for equals the copy-and-sort definition.
func TestTrackerMatchesSortedCopy(t *testing.T) {
	for _, tc := range []struct {
		window, n int
		distinct  int64
		seed      uint64
	}{
		{1, 50, 3, 1}, {2, 50, 2, 2}, {7, 200, 4, 3}, {64, 1000, 1000, 4},
		{64, 1000, 5, 5}, {100, 1234, 1 << 40, 6}, {1024, 2500, 300, 7},
	} {
		tr := NewTracker(tc.window)
		r := sim.NewRand(tc.seed)
		var history []sim.Time
		for i := 0; i < tc.n; i++ {
			d := sim.Time(r.Int63n(tc.distinct))
			if r.Intn(8) == 0 && len(history) > 0 {
				d = history[r.Intn(len(history))] // a value seen before, maybe evicted since
			}
			tr.Record(d)
			history = append(history, d)
			want := sortedWindow(history, tc.window)
			if tr.Count() != len(want) {
				t.Fatalf("window %d seed %d after %d records: Count = %d, want %d", tc.window, tc.seed, i+1, tr.Count(), len(want))
			}
			for _, p := range []float64{0, 50, 90, 95, 99.9, 100} {
				idx := int(p / 100 * float64(len(want)))
				if idx >= len(want) {
					idx = len(want) - 1
				}
				if got := tr.Percentile(p); got != want[idx] {
					t.Fatalf("window %d seed %d after %d records: p%v = %v, sorted copy says %v",
						tc.window, tc.seed, i+1, p, got, want[idx])
				}
			}
		}
	}
}

// TestTrackerConcurrent is for the race detector: writers and percentile
// readers share one tracker. Whatever the interleaving, the window ends
// holding the last `window` observations of some order of the writes; all
// writers record the same multiset, so the end state is checkable.
func TestTrackerConcurrent(t *testing.T) {
	const writers, perWriter, window = 4, 2000, 256
	tr := NewTracker(window)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if lo, hi := tr.Percentile(50), tr.Percentile(99.9); lo > hi {
				t.Errorf("p50 %v above p99.9 %v", lo, hi)
				return
			}
			tr.Count()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Record(sim.Time(i % 7))
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if tr.Count() != window {
		t.Fatalf("Count = %d, want %d", tr.Count(), window)
	}
	if lo, hi := tr.Percentile(0), tr.Percentile(100); lo < 0 || hi > 6 {
		t.Fatalf("window holds values outside what was recorded: min %v max %v", lo, hi)
	}
}
