// The crash sweep's tests. The harness (internal/crashsweep) drives only
// the engine's exported API, so these tests are an external test package:
// they run beside the engine's own tests, under the names and the repro
// command they have always had.
package core_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"purity/internal/crashsweep"
)

// censusPoints is every crash point the sweep workload hits at its default
// seed, the same set at one lane and at four. The census is pinned as a
// set, not a count: a Hit dropped from a function that keeps other Hits
// (which purity-lint's crashpointcheck cannot see) fails here, and a new
// point joins the list on purpose.
var censusPoints = []string{
	"ckpt.begin", "ckpt.boot-written", "ckpt.data-flushed", "ckpt.meta-flushed", "ckpt.released",
	"frontier.boot.begin", "frontier.boot.replica", "frontier.write.flushed",
	"gc.evac.begin", "gc.evac.moved", "gc.evac.redirected", "gc.evac.sealed",
	"gc.retire.dead", "gc.retire.erased",
	"lane.apply.before",
	"layout.flush.encoded", "layout.flush.wave", "layout.seal.begin", "layout.seal.trailer",
	"nvram.append.after", "nvram.append.before", "nvram.append.corrupt", "nvram.append.mirror", "nvram.append.torn",
	"pyramid.merge.begin", "pyramid.persist.desc", "pyramid.persist.page",
	"rebuild.drive.done", "rebuild.segment.begin", "rebuild.shard.written", "rebuild.swap.committed",
	"recover.ckpt-loaded", "recover.replay", "recover.replayed", "recover.scanned",
}

func sweepTestOptions(lanes int) crashsweep.Options {
	opts := crashsweep.Options{Lanes: lanes}.WithDefaults()
	if testing.Short() {
		opts.MaxHitsPerPoint = 1
	} else {
		opts.MaxHitsPerPoint = 3
	}
	return opts
}

// TestCrashSweep is the tier-1 crash-consistency sweep, once per lane
// count: census the deterministic workload, assert the fault-point
// coverage the design demands, then run every (point, hit) case as a
// subtest. A failing case reproduces with:
//
//	go test -run 'TestCrashSweep/lanes=L/<point>/hit=N' ./internal/core/
func TestCrashSweep(t *testing.T) {
	for _, lanes := range crashsweep.Lanes {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			opts := sweepTestOptions(lanes)
			census, err := crashsweep.Census(opts)
			if err != nil {
				t.Fatalf("census: %v", err)
			}

			points := slices.Sorted(maps.Keys(census))
			t.Logf("census (seed %d, %d ops): %d distinct crash points", opts.Seed, opts.Ops, len(points))
			if !slices.Equal(points, censusPoints) {
				t.Errorf("census hit %d points, want the %d in censusPoints:\n got %v\nwant %v",
					len(points), len(censusPoints), points, censusPoints)
			}

			for _, point := range points {
				for _, hit := range crashsweep.Hits(census[point], opts.MaxHitsPerPoint) {
					t.Run(fmt.Sprintf("%s/hit=%d", point, hit), func(t *testing.T) {
						if err := crashsweep.RunCase(opts, point, hit); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		})
	}
}

// TestCrashSweepFullScanAgreement spot-checks that frontier-bounded
// recovery and full-device-scan recovery agree on the recovered state,
// on a crash point from each of the most state-heavy families.
func TestCrashSweepFullScanAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scan agreement check skipped in short mode")
	}
	for _, lanes := range crashsweep.Lanes {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			opts := crashsweep.Options{Lanes: lanes, FullScanCheck: true}.WithDefaults()
			for _, point := range []string{"ckpt.data-flushed", "gc.evac.redirected", "layout.seal.begin"} {
				if err := crashsweep.RunCase(opts, point, 1); err != nil {
					t.Errorf("%s: %v", point, err)
				}
			}
		})
	}
}
