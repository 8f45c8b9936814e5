package bench

import (
	"fmt"
	"sort"

	"purity/internal/crashsweep"
)

// runCS is the opt-in crash-consistency sweep: the exhaustive counterpart
// to the capped tier-1 TestCrashSweep, once per lane count. It censuses
// the deterministic mixed workload, then for every named crash point
// simulates a hard crash at each pass of that point (full run) or a
// bounded sample (-quick), recovers from the shared shelf — twice — and
// holds the array to core.Array.Check and a flat model. Any failure prints
// the seed, lane count, point and hit count for a one-command reproduction
// under TestCrashSweep, which runs in internal/core's external test
// package.
func runCS(o Options) error {
	for _, lanes := range crashsweep.Lanes {
		fmt.Fprintf(o.Out, "=== lanes = %d ===\n", lanes)
		if err := runCSLanes(o, lanes); err != nil {
			return err
		}
	}
	return nil
}

func runCSLanes(o Options, lanes int) error {
	opts := crashsweep.Options{
		Seed:            o.Seed,
		Lanes:           lanes,
		MaxHitsPerPoint: 0, // exhaustive: every (point, hit) pair
		FullScanCheck:   !o.Quick,
		Log: func(format string, args ...any) {
			fmt.Fprintf(o.Out, format+"\n", args...)
		},
	}
	if o.Quick {
		opts.MaxHitsPerPoint = 4
	}

	rep, err := crashsweep.Run(opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(o.Out, "\nseed %d, lanes %d: %d crash points, %d (point,hit) cases\n",
		rep.Seed, rep.Lanes, rep.Points, rep.Cases)
	points := make([]string, 0, len(rep.Census))
	for p := range rep.Census {
		points = append(points, p)
	}
	sort.Strings(points)
	fmt.Fprintf(o.Out, "%-28s %s\n", "point", "hits/run")
	for _, p := range points {
		fmt.Fprintf(o.Out, "%-28s %d\n", p, rep.Census[p])
	}

	if len(rep.Failures) > 0 {
		fmt.Fprintf(o.Out, "\n%d FAILURES:\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(o.Out, "  %s hit=%d: %s\n", f.Point, f.Hit, f.Err)
			fmt.Fprintf(o.Out, "    repro: go test -run 'TestCrashSweep/lanes=%d/%s/hit=%d' ./internal/core/\n", lanes, f.Point, f.Hit)
		}
		return fmt.Errorf("crash sweep: lanes=%d: %d of %d cases failed", lanes, len(rep.Failures), rep.Cases)
	}
	fmt.Fprintf(o.Out, "\nall %d cases recovered to model equivalence\n\n", rep.Cases)
	return nil
}
