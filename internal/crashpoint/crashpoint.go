// Package crashpoint is a deterministic fault-point registry for
// crash-consistency testing. Durability-critical code paths — NVRAM record
// appends, segio flushes, segment seals, pyramid persists, boot-region
// writes, GC retirement, recovery itself — call Hit at named points. A test
// arms one (point, hit-count) pair; when that point's per-run hit counter
// reaches the armed count, Hit panics with a Crash value, modelling a hard
// power loss at exactly that instant. Everything already written to the
// simulated devices survives; everything in DRAM is lost (the test abandons
// the engine instance and re-opens from the shared shelf).
//
// The registry is deliberately dumb: no randomness, no time, just counters.
// Two runs of the same deterministic workload hit every point the same
// number of times in the same order, so a sweep can first census the points
// (armed with nothing), then enumerate every (point, hit) pair and crash at
// each one reproducibly.
//
// A nil *Registry is valid and inert, so production code paths carry a
// registry pointer unconditionally and pay one nil check when crash testing
// is off.
package crashpoint

import (
	"fmt"
	"sort"
	"sync"
)

// Crash is the panic value thrown by an armed point. Sweeps recover() it
// and treat any other panic value as a real bug.
type Crash struct {
	Point string // the fault point that fired
	Hit   int    // which hit fired (1-based)
}

func (c Crash) String() string {
	return fmt.Sprintf("crashpoint: simulated crash at %s (hit %d)", c.Point, c.Hit)
}

// AsCrash reports whether a recovered panic value is a simulated crash.
func AsCrash(v any) (Crash, bool) {
	c, ok := v.(Crash)
	return c, ok
}

// Registry is a set of named fault points with per-point hit counters and
// at most one armed (point, hit) pair. Safe for concurrent use; Hit is
// called from engine code that may run under locks, so the registry never
// calls back into anything.
type Registry struct {
	mu     sync.Mutex
	counts map[string]int
	armed  string
	armHit int
	fired  bool
	firedC Crash
}

// New returns an empty, disarmed registry.
func New() *Registry {
	return &Registry{counts: make(map[string]int)}
}

// Hit records one pass through a named point and panics with a Crash if
// this is the armed point's armed hit. Nil-safe: a nil registry is a no-op.
func (r *Registry) Hit(point string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[point]++
	n := r.counts[point]
	fire := !r.fired && r.armed == point && n == r.armHit
	if fire {
		r.fired = true
		r.firedC = Crash{Point: point, Hit: n}
	}
	r.mu.Unlock()
	if fire {
		panic(Crash{Point: point, Hit: n})
	}
}

// Arm sets the crash trigger: the hit-th pass (1-based) through point will
// panic. Arming clears any previous trigger and the fired latch, but not
// the hit counters (use ResetCounts for a fresh census).
func (r *Registry) Arm(point string, hit int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed = point
	r.armHit = hit
	r.fired = false
	r.firedC = Crash{}
}

// Fired reports whether the armed crash has fired, and at what.
func (r *Registry) Fired() (Crash, bool) {
	if r == nil {
		return Crash{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.firedC, r.fired
}

// ResetCounts zeroes every hit counter (the armed trigger, if any, stays).
func (r *Registry) ResetCounts() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts = make(map[string]int)
}

// Counts returns a copy of the per-point hit counters.
func (r *Registry) Counts() map[string]int {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// Points returns the names of every point hit so far, sorted.
func (r *Registry) Points() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counts))
	for k := range r.counts {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
