// Package telemetry provides the latency histograms, counters and data
// reduction accounting that drive the experiment harness. The paper's
// headline numbers — 99.9% latencies under 1 ms, 5.4× average reduction —
// are percentile and ratio queries over exactly this kind of state (§1,
// §5.1).
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"purity/internal/sim"
)

// Counter is a lock-free event counter for paths too hot (or too error-ish)
// for a histogram — e.g. segment-read or cblock-unpack failures, which used
// to be debug prints. Safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Frontend aggregates the TCP front end's wire-level health counters —
// events the server used to drop on the floor when a connection died or a
// frame failed to parse. A nonzero MalformedFrames or OversizedFrames rate
// is the first sign of a buggy (or hostile) initiator; AbnormalDisconnects
// separates clients that vanished mid-frame from clean EOFs. All fields are
// lock-free Counters, safe for concurrent use from every connection.
type Frontend struct {
	Conns Counter // connections that completed the hello

	// Wire-level failures.
	MalformedFrames     Counter // structurally invalid frames / undecodable payloads
	OversizedFrames     Counter // frames (or read requests) beyond MaxFrame bounds
	AbnormalDisconnects Counter // connections that died mid-stream (not a clean EOF)
	DuplicateTags       Counter // tags reused while still in flight (connection killed)
	RejectedReads       Counter // OpRead lengths clamped against wire.MaxReadLen

	// Admission control.
	AdmissionWaits  Counter // requests that blocked on a tenant window or the byte budget
	AdmissionAborts Counter // admission waits abandoned because the connection died or the server drained
	AcceptRetries   Counter // transient Accept failures survived with backoff

	// Liveness deadlines (the admission-slot leak fix: a dead client can no
	// longer pin a tenant slot or in-flight bytes forever).
	IdleTimeouts  Counter // connections reaped by the idle/read deadline
	WriteTimeouts Counter // response writes abandoned by the write deadline

	// High availability.
	SessionsBound       Counter // hellos that negotiated (opened or resumed) a session
	NotPrimaryRedirects Counter // requests refused with CodeNotPrimary (fenced controller)
	RetryableRejects    Counter // requests refused with CodeRetryable (failover/drain window)
	Failovers           Counter // takeovers completed by this server's monitor
	FailoverNanos       Counter // wall-clock ns spent in those takeovers
	Drains              Counter // graceful shutdowns completed
	DrainNanos          Counter // wall-clock ns spent draining
}

// Summary renders the counters on one line, in a fixed order.
func (f *Frontend) Summary() string {
	return fmt.Sprintf(
		"conns=%d; frames malformed=%d oversized=%d; "+
			"disconnects abnormal=%d; tags duplicate=%d; reads rejected=%d; "+
			"admission waits=%d aborts=%d; accept retries=%d; "+
			"timeouts idle=%d write=%d; sessions=%d; "+
			"redirects notprimary=%d retryable=%d; failovers=%d (%v); drains=%d (%v)",
		f.Conns.Load(),
		f.MalformedFrames.Load(), f.OversizedFrames.Load(),
		f.AbnormalDisconnects.Load(), f.DuplicateTags.Load(), f.RejectedReads.Load(),
		f.AdmissionWaits.Load(), f.AdmissionAborts.Load(), f.AcceptRetries.Load(),
		f.IdleTimeouts.Load(), f.WriteTimeouts.Load(), f.SessionsBound.Load(),
		f.NotPrimaryRedirects.Load(), f.RetryableRejects.Load(),
		f.Failovers.Load(), time.Duration(f.FailoverNanos.Load()),
		f.Drains.Load(), time.Duration(f.DrainNanos.Load()))
}

// Histogram records durations in logarithmic buckets (about 24 buckets per
// decade) for cheap, accurate-enough percentiles. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
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
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	threshold := uint64(p / 100 * float64(h.total))
	if threshold >= h.total {
		return h.max
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > threshold {
			u := bucketUpper(i)
			if u > h.max {
				return h.max
			}
			return u
		}
	}
	return h.max
}

// Summary renders count/mean/p50/p95/p99/p99.9/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p99.9=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95),
		h.Percentile(99), h.Percentile(99.9), h.Max())
}

// Reduction tracks data-reduction accounting: logical bytes the
// applications wrote versus physical bytes that reached flash, split by
// mechanism so experiments can attribute savings (§5: 5.4× average).
type Reduction struct {
	mu            sync.Mutex
	LogicalBytes  int64 // application writes
	PhysicalBytes int64 // compressed bytes stored
	DedupBytes    int64 // logical bytes satisfied by existing data
	ZeroBytes     int64 // logical bytes never materialized (thin provisioning)
}

// AddWrite records one write's accounting.
func (r *Reduction) AddWrite(logical, physical, deduped int64) {
	r.mu.Lock()
	r.LogicalBytes += logical
	r.PhysicalBytes += physical
	r.DedupBytes += deduped
	r.mu.Unlock()
}

// Ratio returns the overall data reduction factor, excluding thin
// provisioning (as the paper's 5.4× figure does).
func (r *Reduction) Ratio() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.PhysicalBytes == 0 {
		return 0
	}
	return float64(r.LogicalBytes) / float64(r.PhysicalBytes)
}

// ReductionSnapshot is a point-in-time copy of the counters.
type ReductionSnapshot struct {
	LogicalBytes  int64
	PhysicalBytes int64
	DedupBytes    int64
	ZeroBytes     int64
}

// Snapshot returns a copy of the counters.
func (r *Reduction) Snapshot() ReductionSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReductionSnapshot{
		LogicalBytes:  r.LogicalBytes,
		PhysicalBytes: r.PhysicalBytes,
		DedupBytes:    r.DedupBytes,
		ZeroBytes:     r.ZeroBytes,
	}
}

// Series is a labelled (x, y) series for figure-style experiment output.
type Series struct {
	Label  string
	Points []Point
}

// Point is one sample of a series.
type Point struct {
	X, Y float64
}

// Sorted returns the points ordered by X.
func (s Series) Sorted() []Point {
	out := append([]Point(nil), s.Points...)
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}
