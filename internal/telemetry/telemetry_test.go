package telemetry

import (
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"

	"purity/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Percentile(99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000*sim.Microsecond {
		t.Fatalf("Max = %v", h.Max())
	}
	mean := h.Mean()
	if mean < 480*sim.Microsecond || mean > 520*sim.Microsecond {
		t.Fatalf("Mean = %v, want ≈500µs", mean)
	}
	// Percentiles within bucket resolution (≈4%).
	p50 := h.Percentile(50)
	if p50 < 480*sim.Microsecond || p50 > 530*sim.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p999 := h.Percentile(99.9)
	if p999 < 950*sim.Microsecond || p999 > 1050*sim.Microsecond {
		t.Fatalf("p99.9 = %v", p999)
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100 = %v, max = %v", h.Percentile(100), h.Max())
	}
}

func TestHistogramSkewedTail(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 999; i++ {
		h.Record(100 * sim.Microsecond)
	}
	h.Record(50 * sim.Millisecond)
	if p := h.Percentile(50); p > 110*sim.Microsecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := h.Percentile(99.95); p < 40*sim.Millisecond {
		t.Fatalf("p99.95 = %v, want the outlier", p)
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(-5)
	h.Record(1)
	h.Record(17 * sim.Second)
	if h.Count() != 4 {
		t.Fatal("extreme values dropped")
	}
	if h.Percentile(100) != 17*sim.Second {
		t.Fatalf("max percentile = %v", h.Percentile(100))
	}
}

func TestBucketMonotone(t *testing.T) {
	last := -1
	for _, d := range []sim.Time{1, 2, 31, 32, 33, 63, 64, 1000, 4096, 100000, sim.Millisecond, sim.Second} {
		b := bucketFor(d)
		if b < last {
			t.Fatalf("bucketFor(%v) = %d < previous %d", d, b, last)
		}
		last = b
		if up := bucketUpper(b); up < d {
			t.Fatalf("bucketUpper(%d) = %v < %v", b, up, d)
		}
	}
}

// TestSummaryIsOneReading: Summary and MarshalJSON report the figures the
// single-figure accessors report, from one pass.
func TestSummaryIsOneReading(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 5000; i++ {
		h.Record(sim.Time(i*i) * sim.Nanosecond)
	}
	s := h.summary()
	want := histSummary{
		Count: h.Count(), Mean: h.Mean(), Max: h.Max(),
		P50: h.Percentile(50), P95: h.Percentile(95), P99: h.Percentile(99), P999: h.Percentile(99.9),
	}
	if s != want {
		t.Fatalf("summary = %+v, want %+v", s, want)
	}
	var got histSummary
	b, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &got); err != nil || got != want {
		t.Fatalf("MarshalJSON = %s (%v), want %+v", b, err, want)
	}
	if empty := NewHistogram().summary(); empty != (histSummary{}) {
		t.Fatalf("empty summary = %+v", empty)
	}
}

// TestRender: every exported atomic.Int64 field, by name, in declaration
// order; nothing else.
func TestRender(t *testing.T) {
	var c struct {
		B      atomic.Int64
		hidden atomic.Int64
		Note   string
		A      atomic.Int64
	}
	c.B.Store(2)
	c.hidden.Store(9)
	c.A.Add(-1)
	if got, want := Render(&c), `{"B":2,"A":-1}`; got != want {
		t.Fatalf("Render = %s, want %s", got, want)
	}
	var f Frontend
	f.Drains.Add(3)
	var m map[string]int64
	if err := json.Unmarshal([]byte(f.Summary()), &m); err != nil {
		t.Fatal(err)
	}
	if len(m) != reflect.TypeOf(&f).Elem().NumField() || m["Drains"] != 3 || m["Conns"] != 0 {
		t.Fatalf("Frontend renders %v", m)
	}
}
