// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation, each regenerating the corresponding rows or
// series on a simulated array. Absolute numbers come from a simulator and
// will not match the authors' testbed; the *shape* — who wins, by what
// rough factor, where crossovers fall — is the reproduction target.
// EXPERIMENTS.md records paper-vs-measured for every run.
package bench

import (
	"fmt"
	"io"
	"sort"

	"purity/internal/core"
)

// Options configures a run.
type Options struct {
	Out   io.Writer
	Quick bool // smaller workloads for CI; full sizes for the record
	Seed  uint64
}

func (o Options) scale(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment is a named runner.
type Experiment struct {
	Name  string
	Title string
	Run   func(Options) error
}

// Experiments lists every table, figure and claim reproduction, in the
// order of DESIGN.md's experiment index.
func Experiments() []Experiment {
	return []Experiment{
		{"T1", "Table 1: Purity vs performance disk array", runT1},
		{"T2", "Table 2: scale-out consolidation ratios", runT2},
		{"F5", "Figure 5: frontier set bounds the recovery scan", runF5},
		{"F6", "Figure 6: the medium table", runF6},
		{"F7", "Figure 7: the five minute rule revisited", runF7},
		{"E1", "§4.4: tail latency and the busy-drive scheduler", runE1},
		{"E2", "§4.4: reconstruct-read overhead for write-heavy loads", runE2},
		{"E3", "§5.2-5.3: data reduction by workload class", runE3},
		{"E4", "§4.7: anchor dedup vs duplicate alignment", runE4},
		{"E5", "§4.10: elision vs tombstones", runE5},
		{"E6", "§1/§4.2: pull two drives mid-workload", runE6},
		{"E7", "§4.3: controller failover under the 30 s budget", runE7},
		{"E8", "§5.1: write amplification, wear and scrub", runE8},
		{"E9", "§2.3: one array vs disk-based key-value nodes", runE9},
		{"E12", "§4.2/§5.1: drive-failure lifecycle — corruption, scrub, online rebuild", runE12},
		{"E14", "§4.4: pipelined front end — queue depth scaling and tail latency", runE14},
		{"E15", "§4.3: end-to-end failover — kill the primary mid-workload under chaos", runE15},
		{"A1", "Ablations: sampling, compression, stagger, RS geometry", runA1},
		{"CS", "§4.3: crash-consistency sweep over every fault point", runCS},
	}
}

// Run executes one experiment by name ("all" runs every one).
func Run(name string, o Options) error {
	if name == "all" {
		for _, e := range Experiments() {
			if err := Run(e.Name, o); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.Name == name {
			fmt.Fprintf(o.Out, "\n================================================================\n")
			fmt.Fprintf(o.Out, "%s — %s\n", e.Name, e.Title)
			fmt.Fprintf(o.Out, "================================================================\n")
			return e.Run(o)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (try: all, %s)", name, names())
}

func names() string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	s := ""
	for i, n := range out {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}

// benchConfig returns the standard experiment array: 11 drives, 7+2, with
// capacity scaled to the run size.
func benchConfig(o Options, mutate ...func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	cfg.Shelf.Drives = 11
	if o.Quick {
		cfg.Shelf.DriveConfig.Capacity = 96 << 20
	} else {
		cfg.Shelf.DriveConfig.Capacity = 256 << 20
	}
	for _, m := range mutate {
		m(&cfg)
	}
	return cfg
}

// newBenchArray formats the standard experiment array.
func newBenchArray(o Options, mutate ...func(*core.Config)) (*core.Array, error) {
	return core.Format(benchConfig(o, mutate...))
}
