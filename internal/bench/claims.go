package bench

import (
	"fmt"

	"purity/internal/cblock"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/iosched"
	"purity/internal/sim"
	"purity/internal/workload"
)

// runE1 checks §4.4's headline: 99.9% of requests under 1 ms, thanks to the
// busy-drive scheduler (treat writing drives as failed, reconstruct from
// parity). The ablation turns the scheduler off to show the spikes return.
func runE1(o Options) error {
	w := o.Out
	ops := o.scale(16000, 2500)
	// 64 clients saturate the array (the write p50 is NVRAM queueing); 16
	// load it without saturating it. The paper's claim is about the second
	// regime, the first shows where the rule runs out of idle donors.
	for _, clients := range []int{64, 16} {
		fmt.Fprintf(w, "Mixed 70/30 R/W, 32 KiB random, %d clients, %d ops:\n\n", clients, ops)
		fmt.Fprintf(w, "%-24s %10s %10s %10s %10s %12s %8s %6s\n", "Scheduler", "p50", "p95", "p99", "p99.9", "busy-avoided", "hedged", "wins")
		for _, avoid := range []bool{true, false} {
			arr, err := newBenchArray(o, func(c *core.Config) {
				c.ReadPolicy = iosched.Policy{AvoidBusy: avoid, HedgePercentile: 95, MinHedgeSamples: 64}
				if !avoid {
					c.ReadPolicy.HedgePercentile = 0 // fully naive baseline
				}
			})
			if err != nil {
				return err
			}
			volBytes := int64(o.scale(192, 64)) << 20
			vol, _, err := arr.CreateVolume(0, "e1", volBytes)
			if err != nil {
				return err
			}
			now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
			if err != nil {
				return err
			}
			res, err := workload.RunClosedLoop(arr, vol, volBytes,
				workload.Mix{ReadFraction: 0.7, IOSize: 32 << 10, Class: workload.ClassDatabase, Seed: o.Seed},
				clients, ops, now)
			if err != nil {
				return err
			}
			label := "on (paper's design)"
			if !avoid {
				label = "off (ablation)"
			}
			st := arr.Stats()
			fmt.Fprintf(w, "%-24s %10v %10v %10v %10v %12d %8d %6d\n", label,
				res.ReadLat.Percentile(50), res.ReadLat.Percentile(95),
				res.ReadLat.Percentile(99), res.ReadLat.Percentile(99.9),
				st.SegRead.BusyAvoided, st.HedgedReads, st.HedgeWins)
			fmt.Fprintf(w, "%-24s %10v %10v %10v %10v\n", "  (writes)",
				res.WriteLat.Percentile(50), res.WriteLat.Percentile(95),
				res.WriteLat.Percentile(99), res.WriteLat.Percentile(99.9))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "Paper shape: with the scheduler, p99.9 stays ~1 ms; without it, reads queue\n")
	fmt.Fprintf(w, "behind multi-ms flash programs and the tail grows by an order of magnitude.\n")
	return nil
}

// runE2 measures §4.4's read-cost model: with 7+2 over 11 drives and ≤2
// writers at a time, about 2/11 of reads are served by reconstruction, each
// costing 7 shard reads — "increasing costs by 7 × 2/11 ≈ 1.3× for
// write-heavy workloads".
func runE2(o Options) error {
	w := o.Out
	arr, err := newBenchArray(o)
	if err != nil {
		return err
	}
	volBytes := int64(o.scale(192, 64)) << 20
	vol, _, err := arr.CreateVolume(0, "e2", volBytes)
	if err != nil {
		return err
	}
	now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
	if err != nil {
		return err
	}
	// Write-heavy: drives are frequently mid-program when reads arrive.
	res, err := workload.RunClosedLoop(arr, vol, volBytes,
		workload.Mix{ReadFraction: 0.3, IOSize: 32 << 10, Class: workload.ClassDatabase, Seed: o.Seed},
		64, o.scale(12000, 2000), now)
	if err != nil {
		return err
	}
	st := arr.Stats()
	direct := st.SegRead.DirectShardReads
	recon := st.SegRead.ReconstructedReads
	frac := float64(recon) / float64(direct+recon)
	k := float64(arr.Config().Layout.DataShards)
	costFactor := (1 - frac) + frac*k
	fmt.Fprintf(w, "Write-heavy mix (30%% reads), %d reads served:\n\n", res.ReadOps)
	fmt.Fprintf(w, "  shard reads: %d direct, %d reconstructed (%.1f%% of reads)\n", direct, recon, frac*100)
	fmt.Fprintf(w, "  busy-drive avoidances: %d\n", st.SegRead.BusyAvoided)
	fmt.Fprintf(w, "  read cost factor: (1-f) + f*K = %.2fx (paper's model at f=2/11: %.2fx extra, ~1.3x)\n",
		costFactor, 7.0*2.0/11.0)
	fmt.Fprintf(w, "\nPaper shape: a modest fraction of reads reconstruct; each costs K=7 shard\n")
	fmt.Fprintf(w, "reads; the throughput tax buys an order-of-magnitude better tail latency (E1).\n")
	return nil
}

// runE3 reproduces the data-reduction claims: RDBMS 3-8x (§5.2), server VM
// fleets 5-10x (§5.3), VDI clones 20x+ (§5.3), and the production average
// of 5.4x (§1) on a mixed population.
func runE3(o Options) error {
	w := o.Out
	type scenario struct {
		name  string
		class workload.DataClass
		vols  int
		paper string
	}
	scenarios := []scenario{
		{"RDBMS pages", workload.ClassDatabase, 2, "3-8x"},
		{"Server VM images", workload.ClassVMImage, 6, "5-10x"},
		{"VDI desktop clones", workload.ClassVDI, 12, "20x+"},
		{"Incompressible noise", workload.ClassRandom, 1, "~1x"},
	}
	fmt.Fprintf(w, "%-22s %10s %12s %14s %10s\n", "Workload", "written", "physical", "reduction", "paper")
	volBytes := int64(o.scale(48, 16)) << 20
	var totalLogical, totalPhysical int64
	for _, sc := range scenarios {
		arr, err := newBenchArray(o)
		if err != nil {
			return err
		}
		now := sim.Time(0)
		for v := 0; v < sc.vols; v++ {
			vol, n2, err := arr.CreateVolume(now, fmt.Sprintf("%s-%d", sc.name, v), volBytes)
			if err != nil {
				return err
			}
			// Same generator seed across volumes of a scenario: VM/VDI
			// tenants share golden-image blocks; databases do not.
			now, err = workload.Prefill(arr, vol, volBytes, 32<<10, sc.class, o.Seed, n2)
			if err != nil {
				return err
			}
		}
		st := arr.Stats()
		fmt.Fprintf(w, "%-22s %9dM %11dM %13.1fx %10s\n", sc.name,
			st.LogicalBytes>>20, st.PhysicalBytes>>20, st.ReductionRatio, sc.paper)
		totalLogical += st.LogicalBytes
		totalPhysical += st.PhysicalBytes
	}
	// Fleet-wide aggregate: total logical over total physical, the way the
	// paper's continuously-published customer average is computed.
	fmt.Fprintf(w, "\nAggregate across the mixed fleet: %.1fx (paper's production average: 5.4x)\n",
		float64(totalLogical)/float64(totalPhysical))
	return nil
}

// runE4 checks §4.7's detection claim: duplicate runs of ≥ 8 blocks (4 KiB)
// are found regardless of alignment, despite recording only every eighth
// hash.
func runE4(o Options) error {
	w := o.Out
	arr, err := newBenchArray(o)
	if err != nil {
		return err
	}
	base, _, err := arr.CreateVolume(0, "gold", 8<<20)
	if err != nil {
		return err
	}
	goldSize := 2 << 20
	gen := workload.NewGen(o.Seed, workload.ClassRandom)
	gold := make([]byte, goldSize)
	gen.Fill(gold, 0)
	now := sim.Time(0)
	for off := 0; off < goldSize; off += 32 << 10 {
		if now, err = arr.WriteAt(now, base, int64(off), gold[off:off+32<<10]); err != nil {
			return err
		}
	}
	if now, err = arr.FlushAll(now); err != nil {
		return err
	}

	fmt.Fprintf(w, "32 KiB writes whose content duplicates existing data at a shifted offset:\n\n")
	fmt.Fprintf(w, "%-22s %14s %16s\n", "Shift (512B blocks)", "dedup hits", "dup blocks found")
	vol, _, err := arr.CreateVolume(now, "shifted", 8<<20)
	if err != nil {
		return err
	}
	for _, shift := range []int{0, 1, 2, 3, 5, 7, 8, 13, 31, 63} {
		before := arr.Stats()
		writes := 16
		for i := 0; i < writes; i++ {
			src := (shift + i*67) * cblock.SectorSize
			if src+32<<10 > goldSize {
				src = src % (goldSize - 32<<10)
			}
			if now, err = arr.WriteAt(now, vol, int64(i)*(32<<10), gold[src:src+32<<10]); err != nil {
				return err
			}
		}
		after := arr.Stats()
		fmt.Fprintf(w, "%-22d %10d/%d %16d\n", shift,
			after.DedupHits-before.DedupHits, writes, after.InlineDupBlocks-before.InlineDupBlocks)
	}
	fmt.Fprintf(w, "\nPaper shape: hits at every alignment — sampled hashes anchor the run, then\n")
	fmt.Fprintf(w, "byte-verified extension recovers the rest, at any 512 B phase.\n")
	return nil
}

// runE6 is the paper's pull-a-drive demo (§1: "we encourage potential
// customers to pull drives... as they evaluate Purity"): two drives die
// mid-workload with no errors; data stays intact; a third loss exceeds the
// 7+2 parity.
func runE6(o Options) error {
	w := o.Out
	// A small DRAM cache keeps the reads on the drives, where the parity
	// machinery (not caching) must carry the failure.
	arr, err := newBenchArray(o, func(c *core.Config) { c.CBlockCacheEntries = 32 })
	if err != nil {
		return err
	}
	volBytes := int64(o.scale(128, 48)) << 20
	vol, _, err := arr.CreateVolume(0, "e6", volBytes)
	if err != nil {
		return err
	}
	now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
	if err != nil {
		return err
	}
	if now, err = arr.FlushAll(now); err != nil {
		return err
	}
	mix := workload.Mix{ReadFraction: 0.7, IOSize: 32 << 10, Class: workload.ClassDatabase, Seed: o.Seed}
	phase := func(label string) error {
		res, err := workload.RunClosedLoop(arr, vol, volBytes, mix, 32, o.scale(4000, 800), now)
		if err != nil {
			return err
		}
		now = now + res.SimDuration
		fmt.Fprintf(w, "%-26s %8.0f IOPS   read p99 %8v   errors %d\n",
			label, res.IOPS, res.ReadLat.Percentile(99), res.Errors)
		return nil
	}
	if err := phase("healthy"); err != nil {
		return err
	}
	if err := arr.Shelf().PullDrive(2); err != nil {
		return err
	}
	if err := phase("one drive pulled"); err != nil {
		return err
	}
	if err := arr.Shelf().PullDrive(7); err != nil {
		return err
	}
	if err := phase("two drives pulled"); err != nil {
		return err
	}
	// Integrity spot-check under double failure: every probe must be
	// readable (content may have been overwritten by the workload phases,
	// so only serviceability is asserted here; the byte-exact checks live
	// in the test suite's TestSurvivesTwoDrivePulls).
	for _, off := range []int64{0, volBytes / 2, volBytes - 32<<10} {
		if _, d, err := arr.ReadAt(now, vol, off, 32<<10); err != nil {
			return err
		} else {
			now = d
		}
	}
	fmt.Fprintf(w, "integrity: all reads served with two drives missing\n")

	if err := arr.Shelf().PullDrive(9); err != nil {
		return err
	}
	res, err := workload.RunClosedLoop(arr, vol, volBytes, mix, 32, o.scale(1000, 300), now)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %8.0f IOPS   errors %d (3rd loss exceeds 7+2 parity, as designed)\n",
		"three drives pulled", res.IOPS, res.Errors)
	for _, bay := range []int{2, 7, 9} {
		if err := arr.Shelf().ReinsertDrive(bay); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\nPaper shape: service continues through any two losses; reconstruction reads\n")
	fmt.Fprintf(w, "replace the missing shards; the third simultaneous loss is out of contract.\n")
	return nil
}

// runE7 measures controller failover (§4.3): detection plus recovery must
// land far under the 30-second client I/O timeout, and the frontier set is
// what keeps the scan short.
func runE7(o Options) error {
	w := o.Out
	pair, err := controller.NewPair(controller.DefaultConfig(), benchConfig(o))
	if err != nil {
		return err
	}
	arr := pair.Array()
	volBytes := int64(o.scale(128, 48)) << 20
	vol, _, err := arr.CreateVolume(0, "e7", volBytes)
	if err != nil {
		return err
	}
	now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
	if err != nil {
		return err
	}
	// Warm the secondary's cache list and heat the primary cache.
	if _, _, err := arr.ReadAt(now, vol, 0, 256<<10); err != nil {
		return err
	}
	warmed := pair.WarmSecondary()

	pair.KillPrimary()
	rep, done, err := pair.Failover(now)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Failover timeline (simulated):\n")
	fmt.Fprintf(w, "  heartbeat detection:    %v\n", rep.Detection)
	fmt.Fprintf(w, "  boot+frontier scan:     %v (%d AUs, %d segments discovered)\n",
		rep.Recovery.ScanTime, rep.Recovery.AUsScanned, rep.Recovery.SegmentsDiscovered)
	fmt.Fprintf(w, "  NVRAM replay:           %d records\n", rep.Recovery.NVRAMRecords)
	fmt.Fprintf(w, "  total unavailability:   %v  (budget: 30 s client timeout)\n", rep.Total)
	fmt.Fprintf(w, "  cache warming (async):  %d cblocks in %v, off the critical path\n", warmed, rep.WarmTime)
	if rep.Total > 30*sim.Second {
		fmt.Fprintf(w, "  *** OVER BUDGET ***\n")
	}
	// Post-failover service check via the survivor: the dead primary's role
	// is fenced, so ownership has moved to the secondary.
	if _, _, err := pair.ReadAt(done, pair.Active(), vol, 0, 32<<10); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nPaper shape: the frontier set turned a 12 s scan into 0.1 s, keeping failover\n")
	fmt.Fprintf(w, "well inside the 30 s budget; cache warming removes the post-failover cold start.\n")
	return nil
}
