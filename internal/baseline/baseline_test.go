package baseline

import (
	"math"
	"testing"

	"purity/internal/sim"
	"purity/internal/workload"
)

func TestDiskArrayLatencyShape(t *testing.T) {
	d := NewDiskArray(DefaultDiskArrayConfig(100))
	// A single random read costs about seek + rotation + transfer ≈ 5-6 ms,
	// the figure the paper's Table 1 quotes for disk.
	_, done, err := d.ReadAt(0, 1, 64<<10, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if done < 5*sim.Millisecond || done > 8*sim.Millisecond {
		t.Fatalf("disk read latency %v, want ≈5-8ms", done)
	}
	// Writes mirror: two disk ops, but in parallel on different spindles.
	wDone, err := d.WriteAt(0, 1, 128<<10, make([]byte, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if wDone < 5*sim.Millisecond {
		t.Fatalf("mirrored write too fast: %v", wDone)
	}
}

func TestDiskArrayQueueing(t *testing.T) {
	d := NewDiskArray(DefaultDiskArrayConfig(4))
	// Hammer one stripe unit: requests serialize on its spindle pair
	// (reads alternate between the two mirror sides).
	var done sim.Time
	for i := 0; i < 6; i++ {
		var err error
		_, done, err = d.ReadAt(0, 1, 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
	}
	if done < 3*5*sim.Millisecond {
		t.Fatalf("6 queued reads finished at %v, want ≥ 15ms (3 per mirror side)", done)
	}
}

func TestDiskArrayUnderClosedLoop(t *testing.T) {
	cfg := DefaultDiskArrayConfig(60)
	d := NewDiskArray(cfg)
	res, err := workload.RunClosedLoop(d, 1, 1<<30,
		workload.Mix{ReadFraction: 0.7, IOSize: 32 << 10, Class: workload.ClassRandom, Seed: 1},
		120, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The random-read ceiling: every spindle seeking, rotating and moving
	// 32 KiB back to back.
	perIO := cfg.SeekTime + cfg.RotationalLatency + 32*cfg.TransferPerKiB
	ceiling := float64(cfg.Disks) / perIO.Seconds()
	if res.IOPS > ceiling*1.2 {
		t.Fatalf("measured %v IOPS exceeds the %v ceiling", res.IOPS, ceiling)
	}
	if res.IOPS < ceiling*0.3 {
		t.Fatalf("measured %v IOPS far below the %v ceiling at high concurrency", res.IOPS, ceiling)
	}
	if res.ReadLat.Percentile(50) < 5*sim.Millisecond {
		t.Fatalf("disk p50 %v below a single seek", res.ReadLat.Percentile(50))
	}
}

func TestTable1Constants(t *testing.T) {
	p, d := PurityPlatform, DiskPlatform
	// The derived rows must match the paper's Table 1 improvements.
	if got := p.PeakIOPS32K / d.PeakIOPS32K; math.Abs(got-3.08) > 0.01 {
		t.Fatalf("IOPS improvement = %.2f, want 3.08", got)
	}
	if got := p.IOPSPerRU() / d.IOPSPerRU(); math.Abs(got-10.77) > 0.05 {
		t.Fatalf("IOPS/RU improvement = %.2f, want ≈10.7", got)
	}
	if got := p.IOPSPerWatt() / d.IOPSPerWatt(); math.Abs(got-8.68) > 0.1 {
		t.Fatalf("IOPS/W improvement = %.2f, want ≈8.6", got)
	}
	if got := p.IOPSPerDollar() / d.IOPSPerDollar(); math.Abs(got-6.92) > 0.1 {
		t.Fatalf("IOPS/$ improvement = %.2f, want ≈6.9", got)
	}
}

func TestTable2Rows(t *testing.T) {
	// PNUTS: 1.6M op/s over 200k = 8 arrays; 1000 nodes / 8 ≈ 125 (paper: 120).
	pnuts := Published[0]
	lo, hi := pnuts.ArraysNeeded(FA450.PeakIOPS32K, FA450.EffectiveTB)
	if lo != hi || math.Abs(lo-8) > 0.01 {
		t.Fatalf("PNUTS arrays = %v-%v, want 8", lo, hi)
	}
	if ratio := pnuts.NodesLow / lo; ratio < 100 || ratio > 150 {
		t.Fatalf("PNUTS nodes/array = %.0f, want ≈125", ratio)
	}
	// Spanner is capacity-based: 1-10 PB over 250 TB = 4-40.
	spanner := Published[1]
	lo, hi = spanner.ArraysNeeded(FA450.PeakIOPS32K, FA450.EffectiveTB)
	if math.Abs(lo-4) > 0.01 || math.Abs(hi-40) > 0.01 {
		t.Fatalf("Spanner arrays = %v-%v, want 4-40", lo, hi)
	}
	// DynamoDB: 2.6M / 200k = 13.
	ddb := Published[3]
	lo, _ = ddb.ArraysNeeded(FA450.PeakIOPS32K, FA450.EffectiveTB)
	if math.Abs(lo-13) > 0.01 {
		t.Fatalf("DynamoDB arrays = %v, want 13", lo)
	}
	// Consolidation: 200k / 1600 = 125, inside the paper's 100-250 band.
	if r := ConsolidationRatio(FA450.PeakIOPS32K, YCSBPerNodeOps); r != 125 {
		t.Fatalf("consolidation ratio = %v, want 125", r)
	}
}

func TestFigure7Shape(t *testing.T) {
	mediums := Figure7Mediums()
	if len(mediums) != 5 {
		t.Fatalf("mediums = %d", len(mediums))
	}
	ram := mediums[4]
	// Hot data: RAM wins.
	rc := RelativeCost(mediums, 1)
	if rc[4] != 1 {
		t.Fatalf("RAM not cheapest at 1s intervals: %v", rc)
	}
	// Cold data: 10x-reduced Purity wins.
	rc = RelativeCost(mediums, 365*24*3600)
	if rc[2] != 1 {
		t.Fatalf("10x Purity not cheapest at 1yr intervals: %v", rc)
	}
	// The paper's half-hour rule: the reduced-Purity/RAM crossover falls
	// in the tens of minutes.
	x := Crossover(mediums[1], ram) // 4x RDBMS
	if x < 10*60 || x > 60*60 {
		t.Fatalf("4x crossover at %v seconds, want 10-60 minutes", x)
	}
	// Disk never beats RAM at any frequency ("performance disk is dead").
	if !math.IsNaN(Crossover(mediums[3], ram)) {
		t.Fatalf("disk crossed RAM at %v", Crossover(mediums[3], ram))
	}
	// Costs decrease monotonically with colder access for every medium.
	for i, m := range mediums {
		if m.CostAt(10) < m.CostAt(1)-1e-12 {
			continue
		}
		if m.CostAt(1) < m.CostAt(3600) {
			t.Fatalf("medium %d cost not monotone", i)
		}
	}
}
