package core

import (
	"fmt"
	"testing"

	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// modelFingerprint is what the device model computed for
// TestModelFingerprint's fixed script. A change that only moves CPU work
// must leave every number untouched (benchmark/README.md rule 4: "the
// device model must not notice"); a change that moves the model on purpose
// updates them, and says why.
//
// Re-recorded in PR 24, which moved the model on purpose: a drive is busy
// only while it programs or erases (a read behind a read queues and is
// counted in QueuedReads), a chosen reconstruction needs K idle peers, and
// a hedge is a real reconstruction raced against a drive read that is
// still in flight. The values recorded at 257211e and held through PR 23
// were: final ack 997026592, read sim sum 103525300, write sim sum
// 1635502976, HostBytesRead 147438022, HostBytesWritten 85403028,
// FlashBytesWritten 85585305, Erases 72, RandomWrites 36, StalledReads 185,
// MaxWear 12, DirectShardReads 1417, ReconstructedReads 65, ShardBytesRead
// 147294662, BusyAvoided 65, hedged reads 354, cblock cache 10410 hits /
// 1439 misses, reduction ratio 1.250981306, gc 1 run / 8 segments.
const modelFingerprint = `final ack        1164561362
read sim sum     231534834
write sim sum    2091342784
flash            {HostBytesRead:234399906 HostBytesWritten:93852132 FlashBytesWritten:94056153 Erases:90 RandomWrites:39 StalledReads:3 QueuedReads:326 MaxWear:13 BadBlocks:0 BitFlips:0}
segment reads    {DirectShardReads:1563 ReconstructedReads:133 ShardBytesRead:234227874 BusyAvoided:23 CRCMismatches:0 InlineRepairs:0 HomeReadErrors:0 HomeRetries:0}
hedged reads     46, 4 won
cblock cache     7738 hits, 1468 misses
reduction ratio  1.250897428
gc               1 runs, 10 segments reclaimed
`

// TestModelFingerprint pins the device model's view of one seeded
// VDI-shaped script on the shipped configuration (11 drives, 7+2, four
// commit lanes): prefill, snapshot, four clones, then zipf reads and
// overwrites with checkpoints, pyramid merges and one GC in between, all on
// one goroutine in virtual-time order. Every number below is a function of
// which pages and cblocks were read from which drives when, so a "CPU-only"
// change that opens one metadata page fewer, or in another order, fails
// here in under three seconds instead of in a benchmark diff.
func TestModelFingerprint(t *testing.T) {
	const (
		scratchBytes = 8 << 20 // more than one segment (7 MiB of data shards)
		goldenBytes  = 4 << 20
		slot         = 4 << 10 // prefill write size: 1,024 address rows, 4 pages
		clones       = 4
		ops          = 2400
		flushEvery   = 300
		gcAt         = 1600
	)
	cfg := DefaultConfig()
	cfg.CommitLanes = 4
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	step := func(d sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}

	// A scratch volume written twice, so that one sealed segment is all
	// garbage by the time GC runs.
	scratch, d, err := a.CreateVolume(now, "scratch", scratchBytes)
	step(d, err)
	for pass := uint64(0); pass < 2; pass++ {
		for off := int64(0); off < scratchBytes; off += 32 << 10 {
			buf := make([]byte, 32<<10)
			sim.NewRand(pass<<32 | uint64(off)).Bytes(buf)
			step(a.WriteAt(now, scratch, off, buf))
		}
	}
	golden, d, err := a.CreateVolume(now, "golden", goldenBytes)
	step(d, err)
	for off := int64(0); off < goldenBytes; off += slot {
		step(a.WriteAt(now, golden, off, pattern(uint64(off/slot)%256+1, slot)))
	}
	snap, d, err := a.Snapshot(now, golden, "golden@1")
	step(d, err)
	vols := make([]VolumeID, clones)
	for i := range vols {
		vols[i], d, err = a.Clone(now, snap, fmt.Sprintf("clone-%d", i))
		step(d, err)
	}

	// One closed-loop stream per clone; the stream whose previous request
	// completed earliest goes next.
	r := sim.NewRand(18)
	zipf := sim.NewZipf(r, goldenBytes/slot, 0.99)
	at := make([]sim.Time, clones)
	for i := range at {
		at[i] = now
	}
	latest := func() sim.Time {
		m := at[0]
		for _, v := range at {
			m = sim.Max(m, v)
		}
		return m
	}
	var readSim, writeSim sim.Time
	// Count address-map flushes and merges by the patches they install: a
	// flush's patch starts above everything persisted before it, a merge's
	// does not.
	flushes, merges := 0, 0
	seen := map[tuple.Seq]tuple.Seq{}
	var persisted tuple.Seq
	notePatches := func() {
		hi := persisted
		for _, p := range a.pyr[relation.IDAddrs].Patches() {
			if end, ok := seen[p.SeqLo]; ok && end == p.SeqHi {
				continue
			}
			seen[p.SeqLo] = p.SeqHi
			if p.SeqLo > persisted {
				flushes++
			} else {
				merges++
			}
			if p.SeqHi > hi {
				hi = p.SeqHi
			}
		}
		persisted = hi
	}
	notePatches()
	for i := 0; i < ops; i++ {
		s := 0
		for j := range at {
			if at[j] < at[s] {
				s = j
			}
		}
		// Scatter the zipf ranks over the volume; requests are 512 B–32 KiB
		// at any sector, so extents overlap and straddle.
		off := zipf.Next() * 2654435761 % (goldenBytes / slot) * slot
		off += int64(r.Intn(slot/512)) * 512
		n := (r.Intn(64) + 1) * 512
		if off+int64(n) > goldenBytes {
			n = int(goldenBytes - off)
		}
		if r.Intn(10) < 7 {
			_, d, err := a.ReadAt(at[s], vols[s], off, n)
			if err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
			readSim += d - at[s]
			at[s] = d
		} else {
			seed := uint64(i) + 1000 // unique
			if r.Intn(4) > 0 {
				seed = uint64(r.Intn(256)) + 1 // a template the golden image holds
			}
			d, err := a.WriteAt(at[s], vols[s], off, pattern(seed, n))
			if err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
			writeSim += d - at[s]
			at[s] = d
		}
		switch {
		case i == gcAt:
			_, d, err := a.RunGC(latest())
			if err != nil {
				t.Fatalf("op %d: gc: %v", i, err)
			}
			at[s] = d
		case i%flushEvery == flushEvery-1:
			d, err := a.FlushAll(latest())
			if err != nil {
				t.Fatalf("op %d: flush: %v", i, err)
			}
			at[s] = d
		}
		notePatches()
	}
	if flushes < 2 || merges < 1 {
		t.Fatalf("script too short to mean anything: %d address-map flushes, %d merges", flushes, merges)
	}

	st := a.Stats()
	got := fmt.Sprintf("final ack        %d\nread sim sum     %d\nwrite sim sum    %d\n"+
		"flash            %+v\nsegment reads    %+v\nhedged reads     %d, %d won\n"+
		"cblock cache     %d hits, %d misses\nreduction ratio  %.9f\ngc               %d runs, %d segments reclaimed\n",
		int64(latest()), int64(readSim), int64(writeSim),
		st.FlashStats, st.SegRead, st.HedgedReads, st.HedgeWins,
		st.CacheHits, st.CacheMisses, st.ReductionRatio, st.GCRuns, st.GCSegsReclaimed)
	if got != modelFingerprint {
		t.Errorf("the device model noticed this change.\n--- got\n%s--- want (recorded in PR 24)\n%s", got, modelFingerprint)
	}
}
