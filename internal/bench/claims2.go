package bench

import (
	"fmt"

	"purity/internal/core"
	"purity/internal/elide"
	"purity/internal/pyramid"
	"purity/internal/relation"
	"purity/internal/tuple"
	"purity/internal/workload"
)

// runE5 compares elision (§4.10) against the tombstone deletes of
// conventional LSM trees, on identical pyramids: delete every fact of a
// large relation and measure what the deletion itself costs and how fast
// space returns.
func runE5(o Options) error {
	w := o.Out
	n := o.scale(200_000, 20_000)
	build := func(et *elide.Table) (*pyramid.Pyramid, *tuple.SeqSource, error) {
		store := pyramid.NewMemStore()
		p, err := pyramid.New(pyramid.Config{
			ID: 1, Name: "e5", Schema: tuple.Schema{Cols: 3, KeyCols: 1},
		}, store, et)
		if err != nil {
			return nil, nil, err
		}
		seqs := tuple.NewSeqSource(0)
		batch := make([]tuple.Fact, 0, 1024)
		for i := 0; i < n; i++ {
			batch = append(batch, tuple.Fact{Seq: seqs.Next(), Cols: []uint64{uint64(i), uint64(i) * 3, 7}})
			if len(batch) == 1024 {
				if err := p.Insert(batch); err != nil {
					return nil, nil, err
				}
				batch = batch[:0]
			}
		}
		if err := p.Insert(batch); err != nil {
			return nil, nil, err
		}
		if _, err := p.Flush(0, seqs.Current()); err != nil {
			return nil, nil, err
		}
		if _, err := p.Maintain(0, 1); err != nil {
			return nil, nil, err
		}
		return p, seqs, nil
	}
	// --- Elision ---
	et := elide.NewTable()
	pe, peSeqs, err := build(et)
	if err != nil {
		return err
	}
	et.Add(elide.Predicate{Col: 0, Lo: 0, Hi: uint64(n), MaxSeq: peSeqs.Current()})
	// One merge pass reclaims everything: elided tuples drop immediately.
	if _, _, err := pe.MergeStep(0); err != nil {
		return err
	}
	// Force a rewrite of the single patch by flushing one more fact and
	// merging, to show reclaim completes.
	if err := pe.Insert([]tuple.Fact{{Seq: peSeqs.Next(), Cols: []uint64{uint64(n + 1), 0, 0}}}); err != nil {
		return err
	}
	if _, err := pe.Flush(0, peSeqs.Current()); err != nil {
		return err
	}
	if _, err := pe.Maintain(0, 1); err != nil {
		return err
	}
	fmt.Fprintf(w, "Deleting all %d tuples of a relation:\n\n", n)
	fmt.Fprintf(w, "%-26s %16s %16s %16s\n", "Approach", "delete records", "rows after merge", "elide ranges")
	fmt.Fprintf(w, "%-26s %16d %16d %16d\n", "Elision (Purity)", 1, pe.Rows()-1, et.Len())

	// --- Tombstones (the conventional approach) ---
	pt, ptSeqs, err := build(nil)
	if err != nil {
		return err
	}
	batch := make([]tuple.Fact, 0, 1024)
	for i := 0; i < n; i++ {
		// A tombstone is a per-key record; it shadows the value but must
		// itself be stored and merged until it reaches the oldest level.
		batch = append(batch, tuple.Fact{Seq: ptSeqs.Next(), Cols: []uint64{uint64(i), 0, deadMarker}})
		if len(batch) == 1024 {
			if err := pt.Insert(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := pt.Insert(batch); err != nil {
		return err
	}
	if _, err := pt.Flush(0, ptSeqs.Current()); err != nil {
		return err
	}
	if _, err := pt.Maintain(0, 1); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %16d %16d %16s\n", "Tombstones (baseline)", n, pt.Rows(), "-")
	fmt.Fprintf(w, "\nThe elide table collapses %d point deletions into %d range(s); the tombstone\n", n, et.Len())
	fmt.Fprintf(w, "run wrote %d extra records and still carries one tombstone per key after a\n", n)
	fmt.Fprintf(w, "full merge (they may only vanish at the bottom level).\n")
	fmt.Fprintf(w, "\nPaper shape: elide records are O(ranges), reclaim is immediate at the next\n")
	fmt.Fprintf(w, "merge, and the elide table cannot outgrow the live tuple count.\n")
	return nil
}

const deadMarker = ^uint64(0)

// runE8 exercises the endurance story (§5.1): sustained overwrites, GC
// cycles, write amplification to flash, wear spread, and a scrub pass.
func runE8(o Options) error {
	w := o.Out
	arr, err := newBenchArray(o)
	if err != nil {
		return err
	}
	volBytes := int64(o.scale(96, 32)) << 20
	vol, _, err := arr.CreateVolume(0, "e8", volBytes)
	if err != nil {
		return err
	}
	now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
	if err != nil {
		return err
	}
	// Overwrite the whole volume repeatedly, GCing as we go: each pass
	// makes the previous pass's segments dead.
	passes := o.scale(3, 2)
	for pass := 0; pass < passes; pass++ {
		res, err := workload.RunClosedLoop(arr, vol, volBytes,
			workload.Mix{ReadFraction: 0, IOSize: 32 << 10, Sequential: true, Class: workload.ClassDatabase, Seed: o.Seed + uint64(pass)},
			16, int(volBytes/(32<<10)), now)
		if err != nil {
			return err
		}
		now += res.SimDuration
		if _, now, err = arr.RunGC(now); err != nil {
			return err
		}
	}
	if now, err = arr.FlushAll(now); err != nil {
		return err
	}
	st := arr.Stats()
	logical := st.LogicalBytes
	flash := st.FlashStats.FlashBytesWritten
	fmt.Fprintf(w, "Sustained overwrite workload (%d full passes + GC):\n\n", passes+1)
	fmt.Fprintf(w, "  application bytes written:   %d MiB\n", logical>>20)
	fmt.Fprintf(w, "  flash bytes written:         %d MiB\n", flash>>20)
	fmt.Fprintf(w, "  system write amplification:  %.2fx (flash/application; compression offsets GC)\n",
		float64(flash)/float64(logical))
	fmt.Fprintf(w, "  drive-internal amplification:%.2fx (sequential-only writes keep the FTL happy)\n",
		float64(flash)/float64(st.FlashStats.HostBytesWritten))
	fmt.Fprintf(w, "  erases: %d, max P/E on any block: %d, random writes seen by FTL: %d\n",
		st.FlashStats.Erases, st.FlashStats.MaxWear, st.FlashStats.RandomWrites)
	fmt.Fprintf(w, "  GC: %d runs, %d segments reclaimed, %d MiB moved\n",
		st.GCRuns, st.GCSegsReclaimed, st.GCBytesMoved>>20)

	srep, _, err := arr.Scrub(now)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  scrub: %d segments, %d stripes verified, %d bad write units\n",
		srep.SegmentsScanned, srep.StripesVerified, srep.BadWriteUnits)
	fmt.Fprintf(w, "\nPaper shape: the log-structured layout presents the FTL with pure sequential\n")
	fmt.Fprintf(w, "writes (near-zero drive-internal amplification), which is why consumer MLC\n")
	fmt.Fprintf(w, "outlives its rating; periodic scrubs catch charge leakage before it compounds.\n")
	return nil
}

// runE9 reproduces §2.3's throughput comparison: one array versus the
// ~1600 op/s per disk-based key-value node the YCSB study measured.
func runE9(o Options) error {
	w := o.Out
	arr, err := newBenchArray(o)
	if err != nil {
		return err
	}
	volBytes := int64(o.scale(192, 64)) << 20
	vol, _, err := arr.CreateVolume(0, "kv", volBytes)
	if err != nil {
		return err
	}
	now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
	if err != nil {
		return err
	}
	res, err := workload.RunClosedLoop(arr, vol, volBytes,
		workload.Mix{ReadFraction: 0.95, IOSize: 32 << 10, ZipfSkew: 0.99, Class: workload.ClassDatabase, Seed: o.Seed},
		128, o.scale(16000, 2500), now)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "YCSB-style zipfian 95/5 @ 32 KiB, 128 clients:\n\n")
	fmt.Fprintf(w, "  simulated array:        %8.0f op/s (p99 read %v)\n", res.IOPS, res.ReadLat.Percentile(99))
	fmt.Fprintf(w, "  disk KV node (YCSB):    %8d op/s\n", 1600)
	fmt.Fprintf(w, "  consolidation ratio:    %8.0f nodes per array\n", res.IOPS/1600)
	fmt.Fprintf(w, "\nPaper shape: one array replaces 100+ disk-based nodes (their FA-450 at 200k\n")
	fmt.Fprintf(w, "op/s vs 1600 op/s per node is 125:1; this scaled-down shelf lands proportionally).\n")
	return nil
}

// runA1 runs the ablations DESIGN.md calls out: dedup hash sampling,
// compression on/off, write staggering, and RS geometry.
func runA1(o Options) error {
	w := o.Out
	volBytes := int64(o.scale(64, 24)) << 20

	fmt.Fprintf(w, "(a) Dedup hash sampling (VM-image volumes; index size vs missed duplicates)\n\n")
	fmt.Fprintf(w, "%-12s %12s %14s %16s\n", "sampling", "reduction", "dedup hits", "index rows")
	for _, sampling := range []int{1, 8, 32} {
		arr, err := newBenchArray(o, func(c *core.Config) { c.DedupSampling = sampling })
		if err != nil {
			return err
		}
		for v := 0; v < 4; v++ {
			vol, _, err := arr.CreateVolume(0, fmt.Sprintf("vm-%d", v), volBytes)
			if err != nil {
				return err
			}
			if _, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassVMImage, o.Seed, 0); err != nil {
				return err
			}
		}
		st := arr.Stats()
		fmt.Fprintf(w, "1/%-10d %11.1fx %14d %16d\n", sampling, st.ReductionRatio, st.DedupHits,
			arr.RelationRows(relation.IDDedup))
	}
	fmt.Fprintf(w, "paper: 1/8 recorded, all looked up — near-1/1 detection at 1/8 the index.\n\n")

	fmt.Fprintf(w, "(b) Compression on/off (database pages)\n\n")
	for _, comp := range []bool{true, false} {
		arr, err := newBenchArray(o, func(c *core.Config) { c.CompressionEnabled = comp; c.DedupEnabled = false })
		if err != nil {
			return err
		}
		vol, _, err := arr.CreateVolume(0, "db", volBytes)
		if err != nil {
			return err
		}
		if _, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0); err != nil {
			return err
		}
		fmt.Fprintf(w, "  compression=%-5v reduction=%.2fx\n", comp, arr.Stats().ReductionRatio)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "(c) Segio write staggering (MaxConcurrentWrites; read tail under 70/30)\n\n")
	for _, stagger := range []int{2, 9} {
		arr, err := newBenchArray(o, func(c *core.Config) { c.Layout.MaxConcurrentWrites = stagger })
		if err != nil {
			return err
		}
		vol, _, err := arr.CreateVolume(0, "st", volBytes)
		if err != nil {
			return err
		}
		now, err := workload.Prefill(arr, vol, volBytes, 32<<10, workload.ClassDatabase, o.Seed, 0)
		if err != nil {
			return err
		}
		res, err := workload.RunClosedLoop(arr, vol, volBytes,
			workload.Mix{ReadFraction: 0.7, IOSize: 32 << 10, Class: workload.ClassDatabase, Seed: o.Seed},
			8, o.scale(4000, 1200), now)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  ≤%d drives writing: read p99 %v, p99.9 %v\n",
			stagger, res.ReadLat.Percentile(99), res.ReadLat.Percentile(99.9))
	}
	fmt.Fprintf(w, "the stagger's job is guaranteeing idle reconstruction donors. At moderate-to-\n")
	fmt.Fprintf(w, "high load (full-size runs) it wins the tail, as the paper argues; at complete\n")
	fmt.Fprintf(w, "saturation (tiny quick runs) the 7-shard rebuild fan-out can cost more than it\n")
	fmt.Fprintf(w, "saves. Busy-avoidance itself (E1) carries most of the benefit in both regimes.\n\n")

	fmt.Fprintf(w, "(d) Reed-Solomon geometry (space overhead vs reconstruction fan-in)\n\n")
	for _, geo := range []struct{ k, m int }{{5, 2}, {7, 2}, {8, 3}} {
		overhead := float64(geo.m) / float64(geo.k+geo.m) * 100
		fmt.Fprintf(w, "  %d+%d: parity overhead %4.1f%%, reconstruction reads %d shards, survives %d losses\n",
			geo.k, geo.m, overhead, geo.k, geo.m)
	}
	fmt.Fprintf(w, "paper: 7+2 of 11 — 22%% overhead, two-drive tolerance, 7-shard rebuild fan-in.\n")
	return nil
}
