// Package iosched implements the request-scheduling policies of §4.4 of
// the paper: tail-latency tracking and the hedging rule — "measure the
// latency of each request and use Reed-Solomon to reconstruct requested
// data whenever a request takes longer than our 95th percentile latency".
// The busy-drive avoidance half of §4.4 lives in the layout reader (it
// needs stripe geometry); this package supplies the adaptive thresholds.
package iosched

import (
	"slices"
	"sync/atomic"

	"purity/internal/lockrank"
	"purity/internal/sim"
)

// Tracker keeps a sliding window of recent request latencies and answers
// percentile queries against it. Safe for concurrent use.
//
// The window is held twice: as a ring in arrival order, which says what to
// evict, and sorted, which makes a percentile an index. Every read asks for
// a percentile, so Record pays for the order (two binary searches and one
// move of the elements between them) and Percentile pays nothing.
type Tracker struct {
	mu     lockrank.Mutex[lockrank.IoschedTrackerMu]
	window []sim.Time // ring, arrival order; full once len(sorted) reaches it
	pos    int        // next ring slot to overwrite
	sorted []sim.Time // the window's observations, ascending
}

// NewTracker returns a tracker over a window of n observations.
func NewTracker(n int) *Tracker {
	if n <= 0 {
		n = 1024
	}
	return &Tracker{window: make([]sim.Time, n), sorted: make([]sim.Time, 0, n)}
}

// Record adds a request latency, evicting the oldest once the window is
// full.
func (t *Tracker) Record(d sim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, _ := slices.BinarySearch(t.sorted, d)
	if len(t.sorted) < len(t.window) {
		t.sorted = slices.Insert(t.sorted, at, d)
	} else {
		// Equal observations are interchangeable, so any copy of the evicted
		// value will do. Close its gap towards the new value's place.
		gap, _ := slices.BinarySearch(t.sorted, t.window[t.pos])
		if at <= gap {
			copy(t.sorted[at+1:gap+1], t.sorted[at:gap])
		} else {
			at--
			copy(t.sorted[gap:at], t.sorted[gap+1:at+1])
		}
		t.sorted[at] = d
	}
	t.window[t.pos] = d
	t.pos = (t.pos + 1) % len(t.window)
}

// Percentile returns the p-th percentile of the window (0 when empty).
func (t *Tracker) Percentile(p float64) sim.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.sorted)
	if n == 0 {
		return 0
	}
	idx := int(p / 100 * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return t.sorted[idx]
}

// Count returns the number of observations in the window.
func (t *Tracker) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sorted)
}

// Policy bundles the read-path scheduling decisions.
type Policy struct {
	// AvoidBusy treats drives that are programming or erasing as failed
	// and reconstructs around them.
	AvoidBusy bool
	// HedgePercentile (>0 enables hedging): once a drive read has been
	// outstanding for this percentile of recent drive reads' latency,
	// reissue it as a reconstruction and take the earlier completion.
	HedgePercentile float64
	// MinHedgeSamples gates hedging until the tracker has context.
	MinHedgeSamples int
	// SLOHedgePercentile (>0 enables the SLO tweak): when the tail-latency
	// governor reports the p99.9 budget threatened, foreground reads hedge
	// at this lower percentile instead of HedgePercentile — trading extra
	// reconstruction reads for pulling the tail back under the SLO.
	SLOHedgePercentile float64
}

// DefaultPolicy mirrors the paper: busy avoidance on, hedge at p95, and
// hedge earlier (p90) while the tail SLO is threatened.
func DefaultPolicy() Policy {
	return Policy{AvoidBusy: true, HedgePercentile: 95, MinHedgeSamples: 64, SLOHedgePercentile: 90}
}

// HedgeAfter returns how long a drive read must have been outstanding
// before it is raced against a reconstruction — the tracker's hedge
// percentile — and false while hedging is off or the tracker lacks context.
// While the tail SLO is threatened (and the policy opts in via
// SLOHedgePercentile) the lower percentile applies, so foreground reads
// outrank whatever is congesting the drives.
func (p Policy) HedgeAfter(t *Tracker, sloThreatened bool) (sim.Time, bool) {
	hp := p.HedgePercentile
	if sloThreatened && p.SLOHedgePercentile > 0 && p.SLOHedgePercentile < hp {
		hp = p.SLOHedgePercentile
	}
	if hp <= 0 || t.Count() < p.MinHedgeSamples {
		return 0, false
	}
	return t.Percentile(hp), true
}

// Governor tracks foreground read latencies against the paper's tail SLO
// (§4.4: 99.9% of I/O under 1 ms) and arbitrates foreground vs. background
// work: while the recent p99.9 exceeds the budget, background operations
// (scrub steps, low-priority front-end queues) yield to foreground reads.
// Safe for concurrent use.
type Governor struct {
	budget     sim.Time
	minSamples int
	tracker    *Tracker
	deferrals  atomic.Int64
}

// NewGovernor returns a governor over a sliding window of `window` reads
// with the given p99.9 latency budget. A non-positive budget disables it
// (Threatened is always false).
func NewGovernor(budget sim.Time, window int) *Governor {
	return &Governor{budget: budget, minSamples: 64, tracker: NewTracker(window)}
}

// Budget returns the configured p99.9 latency budget.
func (g *Governor) Budget() sim.Time {
	if g == nil {
		return 0
	}
	return g.budget
}

// RecordRead adds one foreground read latency observation.
func (g *Governor) RecordRead(lat sim.Time) {
	if g == nil || g.budget <= 0 {
		return
	}
	g.tracker.Record(lat)
}

// Threatened reports whether the recent p99.9 read latency exceeds the
// budget. It stays false until the window has minimum context, so a cold
// array never starves its background work.
func (g *Governor) Threatened() bool {
	if g == nil || g.budget <= 0 || g.tracker.Count() < g.minSamples {
		return false
	}
	return g.tracker.Percentile(99.9) > g.budget
}

// P999 returns the current p99.9 of the window (0 when empty).
func (g *Governor) P999() sim.Time {
	if g == nil {
		return 0
	}
	return g.tracker.Percentile(99.9)
}

// NoteDeferral counts one background operation deferred in favor of
// foreground reads.
func (g *Governor) NoteDeferral() {
	if g != nil {
		g.deferrals.Add(1)
	}
}

// Deferrals returns how many background operations the governor deferred.
func (g *Governor) Deferrals() int64 {
	if g == nil {
		return 0
	}
	return g.deferrals.Load()
}
