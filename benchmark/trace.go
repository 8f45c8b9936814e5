package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Spans are recorded by the benchmark around its calls into the layers'
// public functions; the program under test is not instrumented. A request's
// root span is named by its kind; its children are the call into the layer
// (core.ReadAt, controller.WriteAt, …) and the data check.
var opNames = [...]string{opRead: "op.read", opWrite: "op.write"}

// span is one timed interval. parent is an index into the tracer's spans,
// -1 for a root; op is the request it belongs to, -1 for background work.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how runs with tracing off are made.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = time.Since(t.t0).Nanoseconds()
	}
}

// total sums the duration of every span with the given name.
func (t *tracer) total(name string) (ns int64, n int) {
	if t == nil {
		return 0, 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// writeTo writes the spans as JSON lines.
func (t *tracer) writeTo(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		line := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err := enc.Encode(line); err != nil {
			//lint:ignore errdrop the encode error is the one reported
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore errdrop the flush error is the one reported
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
