// Command benchmark is this repository's benchmark: four workloads, each run
// on the wall clock and on the device model's virtual clock, with a traced
// run that attributes time and counts to layers. See README.md.
//
//	go run . -workload all                    every workload, every metric
//	go run . -workload ingest -seed 2 -trace 1
//	go run . -compare a.json b.json           judge b against a by the bounds
//
// The contract's driver runs it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchmark: ")
	name := flag.String("workload", "all", "workload to run: ingest, readmiss, vdi-mixed, wire-small or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", refSeconds, "run length the op counts are scaled to")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: record spans and print the per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny sizes, for tests")
	outPath := flag.String("out", "", "with -workload all: write the JSON summary here")
	traceOut := flag.String("trace-out", "", "append the traced run's spans to this file as JSON lines")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || flag.NArg() != 0 {
		log.Fatal("usage: benchmark -workload <name> -seed <n> -seconds <n> -trace <0|1>")
	}

	if *name != "all" {
		sp := specByName(*name)
		if sp == nil {
			log.Fatalf("no workload %q", *name)
		}
		out, err := runSpec(sp, *smoke, *seconds, *seed, *trace == 1, *traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printMetrics(out, defs)
		fmt.Println(contractLine(out, defs))
		return
	}

	// Every workload, timed and traced in one pass.
	sum := summary{Host: hostInfo(), Seed: *seed, Seconds: *seconds, Workloads: map[string]workloadSummary{}}
	ok := true
	for _, sp := range specs {
		out, err := runSpec(sp, *smoke, *seconds, *seed, true, *traceOut)
		if err != nil {
			log.Fatal(err)
		}
		printMetrics(out, endToEnd)
		printMetrics(out, perLayer)
		ws := workloadSummary{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			ws.Metrics[d.name] = metricValue{Value: out.values[d.name], Unit: d.unit, Samples: out.counts[d.name]}
		}
		sum.Workloads[sp.name] = ws
		ok = ok && out.correct()
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if !ok {
		log.Fatal("some operations failed")
	}
}

func runSpec(sp *spec, smoke bool, seconds int, seed uint64, trace bool, traceOut string) (*outcome, error) {
	sz := sp.full.scaled(seconds)
	if smoke {
		sz = sp.smoke
	}
	out, err := runWorkload(sp, sz, seed, trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	for _, e := range out.errs {
		log.Printf("%s: %v", sp.name, e)
	}
	if traceOut != "" && out.spans != nil {
		if err := out.spans.writeTo(traceOut, sp.name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// correct reports whether every output was right: no request failed, no read
// returned wrong bytes, nothing was lost across the crash, and the layers'
// own error counters stayed at zero.
func (out *outcome) correct() bool { return out.failed == 0 && len(out.errs) == 0 }

func printMetrics(out *outcome, defs []metricDef) {
	fmt.Printf("%s: attempted %d, failed %d\n", out.workload, out.attempted, out.failed)
	for _, d := range defs {
		fmt.Printf("  %-40s %16.4f %-7s n=%d\n", d.name, out.values[d.name], d.unit, out.counts[d.name])
	}
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// contractLine is the run's last line of output: one JSON object with the
// keys correct, attempted, failed and metrics.
func contractLine(out *outcome, defs []metricDef) string {
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			log.Fatalf("%s: metric %s has no finite value", out.workload, d.name)
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, metrics})
	if err != nil {
		log.Fatal(err)
	}
	return string(line)
}

// summary is what -workload all -out writes and -compare reads.
type summary struct {
	Host      map[string]string          `json:"host"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
	// Claim is always null: the change that defines the benchmark claims no gain.
	Claim *string `json:"claim"`
}

type workloadSummary struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func hostInfo() map[string]string {
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         strings.TrimPrefix(runtime.Version(), "go"),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
