// Package sim provides the deterministic virtual-time substrate used by
// Purity's device models and latency experiments.
//
// The paper reports microsecond-scale tail latencies measured on hardware.
// A Go reproduction cannot measure those faithfully on a wall clock (the
// runtime's garbage collector alone perturbs tails at that scale), so every
// latency-sensitive experiment in this repository runs on simulated time:
// every call takes the virtual time it is issued at and returns the virtual
// time it completes, device models compute per-operation service times, and
// histograms record simulated durations. The engine's data
// path operates on real bytes; only time is virtual.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
// A Time is also used to express durations; the zero Time is the epoch.
type Time int64

// Duration units, mirroring time.Duration so device parameters read naturally.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "13.42ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
