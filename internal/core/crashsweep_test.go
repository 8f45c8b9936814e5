package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"purity/internal/crashpoint"
	"purity/internal/relation"
	"purity/internal/tuple"
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

func sweepTestOptions(lanes int) SweepOptions {
	opts := SweepOptions{Lanes: lanes}.withDefaults()
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
	for _, lanes := range SweepLanes {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			opts := sweepTestOptions(lanes)
			census, err := CrashCensus(opts)
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
				for _, hit := range sweepHits(census[point], opts.MaxHitsPerPoint) {
					t.Run(fmt.Sprintf("%s/hit=%d", point, hit), func(t *testing.T) {
						if err := RunCrashCase(opts, point, hit); err != nil {
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
	for _, lanes := range SweepLanes {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			opts := SweepOptions{Lanes: lanes, FullScanCheck: true}.withDefaults()
			for _, point := range []string{"ckpt.data-flushed", "gc.evac.redirected", "layout.seal.begin"} {
				if err := RunCrashCase(opts, point, 1); err != nil {
					t.Errorf("%s: %v", point, err)
				}
			}
		})
	}
}

// crashTestConfig returns a config with background work disabled, so the
// only durability of recent writes is their NVRAM records — the setup
// needed to test torn/corrupt trailing-record handling in isolation.
func crashTestConfig(reg *crashpoint.Registry) Config {
	cfg := TestConfig()
	cfg.Crash = reg
	cfg.BackgroundEvery = 1 << 30
	cfg.CheckpointEvery = 1 << 30
	cfg.MemtableFlushRows = 1 << 20
	return cfg
}

// TestTornTailRecovery simulates power loss mid-append: the last NVRAM
// record is torn short on every device. Full recovery through OpenAt must
// drop the torn record (it was never acknowledged) and keep everything
// before it.
func TestTornTailRecovery(t *testing.T) {
	cfg := crashTestConfig(nil)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := a.Shelf()
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	acked := pattern(1, 4096)
	if now, err = a.WriteAt(now, vol, 0, acked); err != nil {
		t.Fatal(err)
	}
	// This write's record will be the torn tail: it simulates an append
	// that power loss cut short, so the op is treated as unacknowledged.
	if now, err = a.WriteAt(now, vol, 8192, pattern(2, 4096)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < sh.NumNVRAM(); i++ {
		if kept := sh.NVRAM(i).TornTail(); kept < 1 {
			t.Fatalf("nvram %d: torn tail left %d records", i, kept)
		}
	}

	a2, _, err := OpenAt(cfg, sh, now, false)
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	got, now, err := a2.ReadAt(now, vol, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(acked) {
		t.Fatal("acknowledged write lost after torn-tail recovery")
	}
	got, _, err = a2.ReadAt(now, vol, 8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("torn (unacknowledged) write visible after recovery")
		}
	}
}

// TestCorruptTailRecovery is the bit-rot variant: the last record's CRC
// no longer matches. Recovery must discard it and everything after it.
func TestCorruptTailRecovery(t *testing.T) {
	cfg := crashTestConfig(nil)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := a.Shelf()
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	acked := pattern(3, 4096)
	if now, err = a.WriteAt(now, vol, 0, acked); err != nil {
		t.Fatal(err)
	}
	if now, err = a.WriteAt(now, vol, 8192, pattern(4, 4096)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < sh.NumNVRAM(); i++ {
		if kept := sh.NVRAM(i).CorruptTail(); kept < 1 {
			t.Fatalf("nvram %d: corrupt tail left %d records", i, kept)
		}
	}

	a2, _, err := OpenAt(cfg, sh, now, false)
	if err != nil {
		t.Fatalf("recovery with corrupt tail: %v", err)
	}
	got, now, err := a2.ReadAt(now, vol, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(acked) {
		t.Fatal("acknowledged write lost after corrupt-tail recovery")
	}
	got, _, err = a2.ReadAt(now, vol, 8192, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("corrupt (unacknowledged) write visible after recovery")
		}
	}
}

// TestCrashDuringRecovery arms a recovery-path crash point, crashes the
// first recovery attempt mid-flight, and verifies a second recovery from
// the same shelf succeeds with all acknowledged data intact — recovery
// itself must be idempotent (it only reads and re-places, it never
// retracts facts).
func TestCrashDuringRecovery(t *testing.T) {
	for _, point := range []string{"recover.ckpt-loaded", "recover.scanned", "recover.replayed"} {
		t.Run(point, func(t *testing.T) {
			reg := crashpoint.New()
			cfg := crashTestConfig(reg)
			a, err := Format(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := a.Shelf()
			vol, now, err := a.CreateVolume(0, "v", 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			acked := pattern(5, 8192)
			if now, err = a.WriteAt(now, vol, 0, acked); err != nil {
				t.Fatal(err)
			}

			reg.Arm(point, 1)
			crashed := false
			func() {
				defer func() {
					if v := recover(); v != nil {
						if c, ok := crashpoint.AsCrash(v); ok && c.Point == point {
							crashed = true
							return
						}
						panic(v)
					}
				}()
				if _, _, err := OpenAt(cfg, sh, now, false); err != nil {
					t.Errorf("unexpected recovery error: %v", err)
				}
			}()
			if !crashed {
				t.Fatalf("point %s did not fire during recovery", point)
			}

			a2, _, err := OpenAt(cfg, sh, now, false)
			if err != nil {
				t.Fatalf("second recovery after crash at %s: %v", point, err)
			}
			got, _, err := a2.ReadAt(now, vol, 0, 8192)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(acked) {
				t.Fatal("acknowledged write lost after double recovery")
			}
		})
	}
}

// TestSeqOracle pins the sweep's seq-uniqueness oracle from both sides: a
// seq stamped into the facts of two keys is reported, while an exact
// re-insert of a fact and a RemapAddr copy of it (same seq and key, new
// location, as replay makes) are accepted.
func TestSeqOracle(t *testing.T) {
	cases := []struct {
		name    string
		second  func(first tuple.Fact) tuple.Fact
		wantErr bool
	}{
		{name: "two keys, one seq", wantErr: true, second: func(first tuple.Fact) tuple.Fact {
			r := relation.AddrFromFact(first)
			r.Sector += r.Sectors
			return r.Fact(first.Seq)
		}},
		{name: "exact re-insert", second: tuple.Fact.Clone},
		{name: "remapped", second: func(first tuple.Fact) tuple.Fact {
			return relation.RemapAddr(first, 9, 4096, 1024)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Format(TestConfig())
			if err != nil {
				t.Fatal(err)
			}
			plant := func(f tuple.Fact) {
				t.Helper()
				a.world.Lock()
				a.mu.Lock()
				defer a.mu.Unlock()
				defer a.world.Unlock()
				if _, _, err := a.commitFactsLocked(0, relation.IDAddrs, []tuple.Fact{f}); err != nil {
					t.Fatal(err)
				}
			}
			first := relation.AddrRow{Medium: 1, Sector: 8, Segment: 1, PhysLen: 512, Sectors: 8}.Fact(a.seqs.Next())
			plant(first)
			plant(tc.second(first))
			versions := 0
			if _, err := a.pyr[relation.IDAddrs].Visit(0, nil, nil, true, func(tuple.Fact) bool { versions++; return true }); err != nil {
				t.Fatal(err)
			}
			if versions != 2 {
				t.Fatalf("the oracle's scan sees %d versions, want both planted facts", versions)
			}
			err = a.checkSeqsUnique(0)
			if got := err != nil; got != tc.wantErr {
				t.Fatalf("checkSeqsUnique = %v, want an error: %v", err, tc.wantErr)
			}
		})
	}
}
