// Package telemetry holds the latency histograms and the one renderer for
// counter structs. The paper's headline numbers — 99.9% latencies under
// 1 ms, 5.4× average reduction — are percentile and ratio queries over
// exactly this kind of state (§1, §5.1).
package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"

	"purity/internal/lockrank"
	"purity/internal/sim"
)

// Render shows the exported sync/atomic.Int64 fields of the struct p points
// to as one JSON object, keyed by field name in declaration order; other
// fields are left out. Every counter struct (Frontend, chaos.Stats,
// client.HAStats, controller.Sessions) is shown through it.
func Render(p any) string {
	v := reflect.ValueOf(p).Elem()
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		c, ok := v.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%d", f.Name, c.Load())
	}
	b.WriteByte('}')
	return b.String()
}

// Frontend aggregates the TCP front end's wire-level health counters. A
// nonzero MalformedFrames or OversizedFrames rate is the first sign of a
// buggy (or hostile) initiator; AbnormalDisconnects separates clients that
// vanished mid-frame from clean EOFs. Safe for concurrent use from every
// connection.
type Frontend struct {
	Conns atomic.Int64 // connections that completed the hello

	// Wire-level failures.
	MalformedFrames     atomic.Int64 // structurally invalid frames / undecodable payloads
	OversizedFrames     atomic.Int64 // frames (or read requests) beyond MaxFrame bounds
	AbnormalDisconnects atomic.Int64 // connections that died mid-stream (not a clean EOF)
	DuplicateTags       atomic.Int64 // tags reused while still in flight (connection killed)
	RejectedReads       atomic.Int64 // OpRead lengths clamped against wire.MaxReadLen

	// Admission control.
	AdmissionWaits  atomic.Int64 // requests that blocked on a tenant window or the byte budget
	AdmissionAborts atomic.Int64 // admission waits abandoned because the connection died or the server drained
	AcceptRetries   atomic.Int64 // transient Accept failures survived with backoff

	// Liveness deadlines: a dead client cannot pin a tenant slot or
	// in-flight bytes forever.
	IdleTimeouts  atomic.Int64 // connections reaped by the idle/read deadline
	WriteTimeouts atomic.Int64 // response writes abandoned by the write deadline

	// High availability.
	SessionsBound       atomic.Int64 // hellos that negotiated (opened or resumed) a session
	NotPrimaryRedirects atomic.Int64 // requests refused with CodeNotPrimary (fenced controller)
	RetryableRejects    atomic.Int64 // requests refused with CodeRetryable (failover/drain window)
	Failovers           atomic.Int64 // takeovers completed by this server's monitor
	FailoverNanos       atomic.Int64 // wall-clock ns spent in those takeovers
	Drains              atomic.Int64 // graceful shutdowns completed
	DrainNanos          atomic.Int64 // wall-clock ns spent draining
}

// Summary renders the counters on one line (Render).
func (f *Frontend) Summary() string { return Render(f) }

// MarshalJSON renders the counters for the stats document (Render).
func (f *Frontend) MarshalJSON() ([]byte, error) { return []byte(Render(f)), nil }

// Histogram records durations in logarithmic buckets (about 24 buckets per
// decade) for cheap, accurate-enough percentiles. Safe for concurrent use.
type Histogram struct {
	mu     lockrank.Mutex[lockrank.TelemetryHistogramMu]
	counts []uint64
	total  uint64
	sum    sim.Time
	max    sim.Time
}

// bucketCount covers the full sim.Time range with sub-4% resolution.
const bucketCount = 64 * 32

// bucketFor maps a duration to its bucket: exact buckets below 32 ns, then
// 32 sub-buckets per power of two.
func bucketFor(d sim.Time) int {
	if d <= 0 {
		return 0
	}
	v := uint64(d)
	if v < 32 {
		return int(v)
	}
	// Position of the highest set bit (>= 5 here).
	msb := 63
	for v>>uint(msb)&1 == 0 {
		msb--
	}
	sub := int(v>>(uint(msb)-5)) & 31
	idx := msb*32 + sub
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketUpper returns an upper-bound representative duration for a bucket.
func bucketUpper(idx int) sim.Time {
	if idx < 32 {
		return sim.Time(idx)
	}
	msb := idx / 32
	sub := idx % 32
	base := uint64(1) << uint(msb)
	return sim.Time(base + uint64(sub+1)*(base>>5))
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, bucketCount)}
}

// Record adds one observation.
func (h *Histogram) Record(d sim.Time) {
	h.mu.Lock()
	h.counts[bucketFor(d)]++
	h.total++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the mean observation.
func (h *Histogram) Mean() sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return sim.Time(int64(h.sum) / int64(h.total))
}

// Max returns the largest observation.
func (h *Histogram) Max() sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns an upper bound for the p-th percentile (p in [0,100]).
func (h *Histogram) Percentile(p float64) sim.Time {
	var out [1]sim.Time
	h.mu.Lock()
	h.percentilesLocked([]float64{p}, out[:])
	h.mu.Unlock()
	return out[0]
}

// percentilesLocked sets out[i] to an upper bound for the ps[i]-th
// percentile, in one pass over the buckets: ps must be ascending. Caller
// holds mu.
func (h *Histogram) percentilesLocked(ps []float64, out []sim.Time) {
	var cum uint64
	i := 0
	for j, p := range ps {
		threshold := uint64(p / 100 * float64(h.total))
		if threshold >= h.total {
			out[j] = h.max
			continue
		}
		// The counts sum to total > threshold, so this stops in range.
		for cum <= threshold {
			cum += h.counts[i]
			i++
		}
		out[j] = min(bucketUpper(i-1), h.max)
	}
}

// histSummary is one reading of a histogram, every figure taken at the
// same instant. Times are nanoseconds.
type histSummary struct {
	Count                          uint64
	Mean, P50, P95, P99, P999, Max sim.Time
}

// summary takes every figure under one lock in one pass over the buckets.
func (h *Histogram) summary() histSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := histSummary{Count: h.total, Max: h.max}
	if h.total > 0 {
		s.Mean = sim.Time(int64(h.sum) / int64(h.total))
	}
	var ps [4]sim.Time
	h.percentilesLocked([]float64{50, 95, 99, 99.9}, ps[:])
	s.P50, s.P95, s.P99, s.P999 = ps[0], ps[1], ps[2], ps[3]
	return s
}

// Summary renders count/mean/p50/p95/p99/p99.9/max on one line.
func (h *Histogram) Summary() string {
	s := h.summary()
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.P999, s.Max)
}

// MarshalJSON renders the same figures as Summary, keyed by name, for the
// stats document.
func (h *Histogram) MarshalJSON() ([]byte, error) { return json.Marshal(h.summary()) }
