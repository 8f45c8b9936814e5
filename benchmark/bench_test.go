package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesTables: BENCHMARK.json and the tables in metrics.go and
// workloads.go say the same thing.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the op counts are sized for %d", c.RunSeconds, refSeconds)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := c.Workloads[i]; w.Name != sp.name || w.Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the benchmark {%s %s %s %v}", kind, i, g, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}

// deterministic lists the metrics that must repeat exactly for a seed: what
// the model run derives from virtual time and from counts.
func deterministic(name string) bool {
	switch name {
	case "sim_write_mean_us", "reduction_ratio", "flash_write_amp",
		"core.sim_read_mean_us", "core.sim_read_p999_us", "core.sim_write_p99_us", "core.recover_sim_ms",
		"core.recover_nvram_records", "core.recover_aus_scanned", "core.cache_hit_ratio", "core.dedup_hit_ratio",
		"core.inline_dup_blocks", "core.hedged_reads", "core.gc_runs", "core.gc_bytes_moved", "core.gc_segments_reclaimed",
		"core.checkpoints", "core.frontier_writes", "nvram.appends_per_write", "nvram.used_bytes_peak",
		"medium.resolve_depth_mean", "medium.resolve_depth_max", "compress.ratio", "pyramid.versions_per_lookup":
		return true
	}
	return strings.HasPrefix(name, "ssd.") || strings.HasPrefix(name, "layout.")
}

// TestSmoke runs every workload at smoke scale twice, once traced, and checks
// that every metric of the contract comes out once and finite, that nothing
// failed (the crash→recover→read-back steps included), and that the two
// model runs agree to the last digit.
func TestSmoke(t *testing.T) {
	all := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, sp := range specs {
		var runs [2]*outcome
		for i := range runs {
			traced := i == 0
			out, err := runWorkload(sp, sp.smoke, 1, traced)
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			runs[i] = out
			if !out.correct() || out.attempted == 0 {
				t.Errorf("%s: attempted %d, failed %d, errors %v", sp.name, out.attempted, out.failed, out.errs)
			}
			want := endToEnd
			if traced {
				want = all
				if len(out.values) != len(all) {
					t.Errorf("%s: %d metrics emitted, the contract lists %d", sp.name, len(out.values), len(all))
				}
			}
			for _, d := range want {
				v, ok := out.values[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s missing or not finite (%v)", sp.name, d.name, v)
				}
			}
			for _, d := range endToEnd {
				if out.values[d.name] <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", sp.name, d.name, out.values[d.name])
				}
			}
			for _, name := range []string{"server.protocol_errors", "layout.crc_mismatches"} {
				if out.values[name] != 0 {
					t.Errorf("%s: %s = %v, must be 0", sp.name, name, out.values[name])
				}
			}
			if line := contractLine(out, endToEnd); !json.Valid([]byte(line)) {
				t.Errorf("%s: result line is not JSON: %s", sp.name, line)
			}
		}
		for _, d := range all {
			a, b := runs[0].values[d.name], runs[1].values[d.name]
			if _, both := runs[1].values[d.name]; both && deterministic(d.name) && a != b {
				t.Errorf("%s: %s differs between two runs of one seed: %v and %v", sp.name, d.name, a, b)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops float64, failed int) summary {
		s := summary{Workloads: map[string]workloadSummary{}}
		for _, sp := range specs {
			ws := workloadSummary{Attempted: 10, Failed: failed, Metrics: map[string]metricValue{}}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				ws.Metrics[d.name] = metricValue{Value: 100, Unit: d.unit}
			}
			ws.Metrics["ops_per_s"] = metricValue{Value: ops, Unit: "1/s"}
			s.Workloads[sp.name] = ws
		}
		return s
	}
	write := func(name string, s summary) string {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1000, 0))
	for _, c := range []struct {
		name  string
		b     summary
		worse int
	}{
		{"same", mk(1000, 0), 0},
		{"faster", mk(2000, 0), 0},
		{"within bound", mk(900, 0), 0},
		{"beyond bound", mk(500, 0), len(specs)},
		{"failures", mk(1000, 1), len(specs)},
	} {
		var buf bytes.Buffer
		worse, err := compareFiles(&buf, base, write("b.json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: %d metrics beyond bound, want %d\n%s", c.name, worse, c.worse, buf.String())
		}
	}
}
