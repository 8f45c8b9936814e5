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
//
// Re-recorded in PR 26, which moved the model on purpose: a write's NVRAM
// record carries the packed frame the write placed instead of its raw
// sectors, so each commit persists fewer bytes and acks sooner. The streams
// are closed loops that go in completion order, so the interleaving of the
// four clones' requests moves with the acks, and with it which reads hit the
// cache and which overwrites find a duplicate (reduction ratio −0.13 %). The
// values recorded in PR 24 were: final ack 1164561362, read sim sum
// 231534834, write sim sum 2091342784, HostBytesRead 234399906,
// HostBytesWritten 93852132, FlashBytesWritten 94056153, StalledReads 3,
// QueuedReads 326, DirectShardReads 1563, ReconstructedReads 133,
// ShardBytesRead 234227874, BusyAvoided 23, hedged reads 46 / 4 won, cblock
// cache 7738 hits / 1468 misses, reduction ratio 1.250897428.
//
// Re-recorded with the pyramid's key filters, which moved the model on
// purpose: a dedup probe skips every patch whose key filter rules its hash
// out, so it opens fewer metadata pages. The script still reads the same
// 135 metadata pages from the drives (95 of them dedup pages), but the 17
// pages of the prefill's dedup patch are no longer read in one burst by the
// first probes that miss (98.6–99.0 ms); each is read when a probe that
// hits first needs it (98.7–102.8 ms). The writes waiting on them ack at
// other times, and the closed-loop streams interleave differently, which
// moves the later reads, hedges and cblock cache hits. What was written,
// deduplicated and collected is unchanged: HostBytesWritten,
// FlashBytesWritten, erases, reduction ratio and GC are identical. The
// values recorded at the frame-logging change above were: final ack
// 1159543298, read sim sum 232771116, write sim sum 2083711864,
// HostBytesRead 226393841, StalledReads 1, QueuedReads 272,
// DirectShardReads 1560, ReconstructedReads 126, ShardBytesRead 226225905,
// BusyAvoided 19, hedged reads 47 / 1 won, cblock cache 8249 hits / 1454
// misses.
//
// Re-recorded with the smallest-pair merge rule, which moved the model on
// purpose: MergeStep merges the adjacent pair of patches with the fewest
// rows instead of the two oldest, so the script's merges read 3,006 rows
// instead of 26,616 (against 11,138 rows flushed) and no longer rewrite
// the base patches. Merges read and write metadata pages through the
// drives: HostBytesWritten and FlashBytesWritten fall by the 1.18 MB of
// merge output not written, and HostBytesRead and ShardBytesRead by the
// 4.2 MB of merge input not read (64 direct shard reads, one
// reconstruction). The programs and reads that are gone free drive time,
// so the writes behind them ack sooner (final ack −23.2 ms, write sim sum
// −3.3 ms), and the closed-loop streams interleave differently, which
// moves the read sim sum, one hedge and the cblock cache counts. What was
// deduplicated and collected is unchanged: erases, reduction ratio and GC
// are identical. The values recorded with the key filters above were:
// final ack 1163247482, read sim sum 233527720, write sim sum 2074625010,
// HostBytesRead 232041707, HostBytesWritten 93852141, FlashBytesWritten
// 94056189, DirectShardReads 1546, ReconstructedReads 130, ShardBytesRead
// 231877867, hedged reads 45 / 1 won, cblock cache 8192 hits / 1470
// misses.
//
// Re-recorded with right-sized reads, which moved the model on purpose:
// every cblock frame and metadata page carries its own CRC, so a segment
// read moves only the frame or page it returns and checks it, instead of
// moving and checking the whole 128 KiB write unit around it. The script's
// drive reads fall from 227.9 MB to 8.2 MB (ShardBytesRead the same), its
// reads land sooner (read sim sum −41 %), and 13 hedges are issued
// instead of 44. The
// closed-loop streams then interleave differently: the GC at op 1,600
// finds two fewer segments worth reclaiming (8, not 10), which is 18 AU
// erases and 7.3 MB of relocation writes fewer, and the writes ack sooner
// (write sim sum −27 %). The frames' 4-byte CRC trailer moves the
// reduction ratio by itself; alone, with whole-unit reads kept, it left
// the bytes written, erases and GC as they were. The values recorded with
// the smallest-pair merge rule above were: final ack 1140035482, read sim
// sum 232705720, write sim sum 2071298518, HostBytesRead 227857673,
// HostBytesWritten 92672748, FlashBytesWritten 92877561, Erases 90,
// RandomWrites 39, StalledReads 2, QueuedReads 281, MaxWear 13,
// DirectShardReads 1482, ReconstructedReads 129, ShardBytesRead 227697929,
// BusyAvoided 22, hedged reads 44 / 1 won, cblock cache 8187 hits / 1468
// misses, reduction ratio 1.249287607, gc 1 run / 10 segments.
//
// Re-recorded with one segment table, which moved the model on purpose:
// the segment relation no longer mirrors the segment map (no row at a
// segment's open or seal, none per segment at recovery) and the AU
// relation no longer holds each new segment's placement, so the two
// relations keep only GC's retirements and rebuild's swaps. Checkpoints
// and merges write and read fewer metadata pages: 7.3 KB fewer host bytes
// written, 9 direct shard reads (1,019 bytes) fewer, and the final ack
// 0.74 ms sooner. The reads, hedges, cblock cache, reduction ratio,
// erases and GC are identical. The values recorded with right-sized reads
// above were: final ack 961180860, write sim sum 1504732146,
// HostBytesRead 8162015, HostBytesWritten 85403283, FlashBytesWritten
// 85586325, DirectShardReads 1385, ShardBytesRead 8162015.
//
// Re-recorded with the XXH64 block hash, which moved the model on purpose:
// dedup.Hash is now XXH64 instead of FNV-1a, and the dedup relation stores
// the hash as its key. So a dedup fact sorts elsewhere in its pages, the
// key filters' false positives (which decide the dedup pages a missed
// probe opens) fall on other probes, and the recent index's lock stripes,
// chosen by the hash's low bits, evict other entries. So other index pages
// and candidate cblocks are read, and the acks that wait on them shift;
// what is deduplicated does not change: the script's dedup hits, misses
// and inline blocks (435, 1,795 and 4,638) and its reduction ratio are
// unchanged. The final ack is 15.8 ms sooner. The values recorded with one
// segment table above were: final ack 960436792, read sim sum
// 137433300, write sim sum 1504732002, HostBytesRead 8160996,
// HostBytesWritten 85395999, FlashBytesWritten 85557189, QueuedReads 105,
// DirectShardReads 1376, ShardBytesRead 8160996, BusyAvoided 24, hedged
// reads 13 / 0 won, cblock cache 7889 hits / 1446 misses.
//
// Re-recorded with the accelerated match search, which moved the model on
// purpose: compress.Compress steps over more bytes after a run of misses
// and walks each match back, so it frames the same blocks to other sizes.
// Every packed frame the script writes, logs in NVRAM and reads back for a
// dedup byte-verify changes length; the acks shift, the closed-loop
// streams interleave differently, and with them which overwrites find a
// duplicate (dedup hits, misses and inline blocks 435 / 1,795 / 4,638 →
// 432 / 1,798 / 4,530, counted on both sides with a temporary log) and which
// reads hit the cache. The script stores 33.8 KB more (reduction ratio
// −0.13 %), and its last write acks 16.8 ms later (+1.8 %); erases and GC
// are unchanged. The values recorded with the XXH64 block hash above were:
// final ack 944602434, read sim sum 137044988, write sim sum 1466901244,
// HostBytesRead 8396134, HostBytesWritten 85358835, FlashBytesWritten
// 85519125, QueuedReads 92, DirectShardReads 1366, ReconstructedReads 56,
// ShardBytesRead 8396134, BusyAvoided 25, hedged reads 14 / 0 won, cblock
// cache 8248 hits / 1435 misses, reduction ratio 1.251280708.
const modelFingerprint = `final ack        961385714
read sim sum     138502748
write sim sum    1503356216
flash            {HostBytesRead:8051293 HostBytesWritten:85396020 FlashBytesWritten:85557273 Erases:72 RandomWrites:36 StalledReads:0 QueuedReads:102 MaxWear:12 BadBlocks:0 BitFlips:0}
segment reads    {DirectShardReads:1392 ReconstructedReads:50 ShardBytesRead:8051293 BusyAvoided:23 CRCMismatches:0 InlineRepairs:0 HomeReadErrors:0 HomeRetries:0}
hedged reads     12, 0 won
cblock cache     7880 hits, 1450 misses
reduction ratio  1.249654796
gc               1 runs, 8 segments reclaimed
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
		t.Errorf("the device model noticed this change.\n--- got\n%s--- want (recorded with the accelerated match search)\n%s", got, modelFingerprint)
	}
	if _, err := a.Check(0); err != nil {
		t.Error(err)
	}
}
