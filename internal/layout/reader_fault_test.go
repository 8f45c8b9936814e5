package layout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"testing"

	"purity/internal/sim"
)

func TestVerifiedReadHealsBitRot(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	item := make([]byte, 8000)
	sim.NewRand(7).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)

	// Flip one bit inside the home write unit of the item (stripe 0, first
	// data slot). The drive read succeeds; only the trailer CRC can tell.
	dataSlot, _ := stripeSlots(cfg, 0)
	home := aus[dataSlot[0]]
	drives[home.Drive].FlipBit(home.Offset(cfg)+200, 2)

	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("verified read served damaged data")
	}
	if st.CRCMismatches != 1 || st.ReconstructedReads != 1 || st.InlineRepairs != 1 {
		t.Fatalf("stats = %+v, want 1 mismatch, 1 reconstruction, 1 inline repair", st)
	}

	// The inline repair rewrote the write unit: the next read is clean.
	got, _, st2, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome, nil)
	if err != nil || !bytes.Equal(got, item) {
		t.Fatalf("re-read after repair: %v", err)
	}
	if st2.CRCMismatches != 0 || st2.DirectShardReads == 0 {
		t.Fatalf("stats after repair = %+v, want clean direct read", st2)
	}
}

// withCRC returns payload followed by its CRC: an item a checked read can
// verify on its own, as a cblock frame or a pyramid page is.
func withCRC(payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(payload), crc32.ChecksumIEEE(payload))
}

// checkCRC is the check of an item built by withCRC.
func checkCRC(b []byte) bool {
	n := len(b) - 4
	return n >= 0 && crc32.ChecksumIEEE(b[:n]) == binary.LittleEndian.Uint32(b[n:])
}

// TestCheckedReadFallsBackAndRepairs: a read that brings its own check
// moves only its range. When a flipped bit fails that check, the range is
// re-read through the unit CRC, which finds the damaged unit, serves the
// reconstruction and rewrites the unit in place; the next read of the same
// range is again a range read that passes its check.
func TestCheckedReadFallsBackAndRepairs(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	payload := make([]byte, 8000)
	sim.NewRand(7).Bytes(payload)
	item := withCRC(payload)
	offs := writeItems(t, w, [][]byte{item})
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)

	// A clean read moves the item's bytes and nothing else.
	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome, checkCRC)
	if err != nil || !bytes.Equal(got, item) {
		t.Fatalf("clean read: %v", err)
	}
	if want := (ReadStats{DirectShardReads: 1, ShardBytesRead: int64(len(item))}); st != want {
		t.Fatalf("clean read stats = %+v, want %+v", st, want)
	}

	// Flip one bit inside the item on its home unit (stripe 0, first data
	// slot, where the item starts).
	dataSlot, _ := stripeSlots(cfg, 0)
	home := aus[dataSlot[0]]
	drives[home.Drive].FlipBit(home.Offset(cfg)+offs[0]+100, 3)

	got, _, st, err = reader.ReadRange(2*sim.Second, info, offs[0], len(item), ReadHome, checkCRC)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("checked read served damaged data")
	}
	// Two checks failed: the item's own, then the unit's trailer CRC on the
	// re-read, which reconstructed the unit and repaired it.
	if st.CRCMismatches != 2 || st.ReconstructedReads != 1 || st.InlineRepairs != 1 {
		t.Fatalf("stats = %+v, want 2 mismatches, 1 reconstruction, 1 inline repair", st)
	}

	got, _, st, err = reader.ReadRange(3*sim.Second, info, offs[0], len(item), ReadHome, checkCRC)
	if err != nil || !bytes.Equal(got, item) {
		t.Fatalf("re-read after repair: %v", err)
	}
	if want := (ReadStats{DirectShardReads: 1, ShardBytesRead: int64(len(item))}); st != want {
		t.Fatalf("stats after repair = %+v, want %+v: one range read, no mismatch", st, want)
	}
}

// flushedUnsealed programs the writer's open segio and returns the segment
// as the array sees it before Seal: stripes on flash, no AU trailer yet, so
// reads of it take the range path rather than the CRC-verified one.
func flushedUnsealed(t *testing.T, w *Writer) SegmentInfo {
	t.Helper()
	if _, err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	info := w.Info()
	if info.Sealed || info.Stripes == 0 {
		t.Fatalf("info = %+v, want a flushed, unsealed segment", info)
	}
	return info
}

// TestHomeReadErrorCountedNotSwallowed pins the range path (no AU trailer
// to verify against, as for a flushed segio of a still-open segment): a read
// error from a live home drive must be counted in HomeReadErrors and answered
// by reconstruction, never silently dropped.
func TestHomeReadErrorCountedNotSwallowed(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	item := make([]byte, 8000)
	sim.NewRand(8).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	info := flushedUnsealed(t, w)
	reader := NewReader(cfg, drives, coder)

	dataSlot, _ := stripeSlots(cfg, 0)
	home := aus[dataSlot[0]]
	drives[home.Drive].CorruptBlock(home.Offset(cfg)) // ErrCorrupt on read

	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("reconstruction served wrong data")
	}
	if st.HomeReadErrors == 0 {
		t.Fatalf("stats = %+v, home read error was swallowed", st)
	}
	if st.ReconstructedReads == 0 {
		t.Fatalf("stats = %+v, no reconstruction despite home error", st)
	}
}

// TestHomeRetryWhenReconstructionImpossible: with too few surviving peers
// the reader falls back to one last home-drive attempt (HomeRetries) before
// giving up.
func TestHomeRetryWhenReconstructionImpossible(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	item := make([]byte, 8000)
	sim.NewRand(9).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	info := flushedUnsealed(t, w)
	reader := NewReader(cfg, drives, coder)

	dataSlot, _ := stripeSlots(cfg, 0)
	homeSlot := dataSlot[0]
	drives[aus[homeSlot].Drive].CorruptBlock(aus[homeSlot].Offset(cfg))
	// Fail two peer drives: 5 shards - home - 2 failed = 2 survivors < K=3.
	failed := 0
	for sl := 0; sl < cfg.TotalShards() && failed < cfg.ParityShards; sl++ {
		if sl == homeSlot {
			continue
		}
		drives[aus[sl].Drive].Fail()
		failed++
	}

	_, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome, nil)
	if err == nil {
		t.Fatal("read succeeded with home corrupt and reconstruction impossible")
	}
	if st.HomeRetries == 0 {
		t.Fatalf("stats = %+v, want a home-drive retry before failing", st)
	}
	if st.HomeReadErrors < 2 {
		t.Fatalf("stats = %+v, want both home attempts counted", st)
	}

	// A sealed segment keeps the same rule: with the same faults its
	// verified read makes the one last home read too, and fails it.
	t.Run("sealed", func(t *testing.T) {
		info, reader, item, off, _ := sealedRetryRig(t, true)
		_, _, st, err := reader.ReadRange(sim.Second, info, off, len(item), ReadHome, nil)
		if err == nil {
			t.Fatal("read succeeded with home corrupt and reconstruction impossible")
		}
		if st.HomeRetries != 1 || st.HomeReadErrors != 2 {
			t.Fatalf("stats = %+v, want 1 home retry and 2 home read errors", st)
		}
	})

	// A home slot marked lost whose unit is still intact on disk: the
	// reconstruction fails, and the retry may read the lost slot because
	// the trailer CRC proves what it returns.
	t.Run("sealed, home lost but intact", func(t *testing.T) {
		info, reader, item, off, homeSlot := sealedRetryRig(t, false)
		reader.SetShardLost(func(_ SegmentID, slot int) bool { return slot == homeSlot })
		got, _, st, err := reader.ReadRange(sim.Second, info, off, len(item), ReadHome, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, item) {
			t.Fatal("home retry served wrong bytes")
		}
		if st.HomeRetries != 1 || st.DirectShardReads != 1 || st.ReconstructedReads != 0 {
			t.Fatalf("stats = %+v, want 1 home retry serving 1 direct read", st)
		}
	})
}

// sealedRetryRig seals one item into a 3+2 segment and fails two of the
// item's peer drives, which leaves two donors for a reconstruction that
// needs three; corruptHome also makes the item's home unit unreadable.
func sealedRetryRig(t *testing.T, corruptHome bool) (info SegmentInfo, reader *Reader, item []byte, off int64, homeSlot int) {
	t.Helper()
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	item = make([]byte, 8000)
	sim.NewRand(9).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	dataSlot, _ := stripeSlots(cfg, 0)
	homeSlot = dataSlot[0]
	if corruptHome {
		drives[aus[homeSlot].Drive].CorruptBlock(aus[homeSlot].Offset(cfg))
	}
	failed := 0
	for sl := 0; sl < cfg.TotalShards() && failed < cfg.ParityShards; sl++ {
		if sl != homeSlot {
			drives[aus[sl].Drive].Fail()
			failed++
		}
	}
	return info, NewReader(cfg, drives, coder), item, offs[0], homeSlot
}

// TestReconstructionScratchIsReused pins the pooled write-unit scratch:
// donors that are skipped leave buffers behind in whatever state they were
// in — one half-filled by a ReadAt that failed part-way, one holding a
// silently damaged unit — and the reads that take those buffers next must
// neither see that content nor count differently.
func TestReconstructionScratchIsReused(t *testing.T) {
	// 3+3 so that a read survives its home shard and two donors at once; 4 KiB
	// erase blocks so that one bad block fails a write-unit read half-way.
	cfg := TestConfig()
	cfg.ParityShards = 3
	drives, coder := newRigFor(t, cfg, cfg.PageSize, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	r := sim.NewRand(11)
	items := make([][]byte, 6) // three per stripe: items 0 and 3 open stripes 0 and 1
	for i := range items {
		items[i] = make([]byte, 30000)
		r.Bytes(items[i])
	}
	offs := writeItems(t, w, items)
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)
	lost := -1
	reader.SetShardLost(func(_ SegmentID, slot int) bool { return slot == lost })

	// Stripe 0: parity in slots 0-2, item 0 in slot 3. Of its donors in slot
	// order, slot 0 fails half-way through the unit and slot 1 has a flipped
	// bit; slots 2, 4 and 5 are the three that serve.
	wu := int64(cfg.WriteUnit)
	dataSlot0, _ := stripeSlots(cfg, 0)
	dataSlot1, _ := stripeSlots(cfg, 1)
	if dataSlot0[0] != 3 || dataSlot1[0] != 0 {
		t.Fatalf("data shard 0 in slots %d and %d of stripes 0 and 1, test assumes 3 and 0", dataSlot0[0], dataSlot1[0])
	}
	drives[aus[0].Drive].CorruptBlock(aus[0].Offset(cfg) + wu/2)
	drives[aus[1].Drive].FlipBit(aus[1].Offset(cfg)+100, 5)
	damaged := ReadStats{ReconstructedReads: 1, ShardBytesRead: 4 * wu, CRCMismatches: 1}
	clean := ReadStats{ReconstructedReads: 1, ShardBytesRead: 3 * wu}

	for i, rd := range []struct {
		item, lostSlot int
		want           ReadStats
	}{
		{0, 3, damaged}, // leaves the half-filled and the damaged buffer in the pool
		{3, 0, clean},   // stripe 1, healthy donors, stale stripe-0 buffers
		{0, 3, damaged}, // the same damage is met and counted the same way again
	} {
		lost = rd.lostSlot
		got, _, st, err := reader.ReadRange(sim.Second, info, offs[rd.item], len(items[rd.item]), ReadHome, nil)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, items[rd.item]) {
			t.Fatalf("read %d: reconstruction returned wrong bytes", i)
		}
		if st != rd.want {
			t.Fatalf("read %d: stats = %+v, want %+v", i, st, rd.want)
		}
	}
}

// TestConcurrentDegradedReads: the Reader is reachable from scrub, rebuild
// and the foreground at once, and its scratch pool is state they share. Run
// under -race (scripts/check.sh does).
func TestConcurrentDegradedReads(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	r := sim.NewRand(12)
	items := make([][]byte, 12)
	for i := range items {
		items[i] = make([]byte, 20000)
		r.Bytes(items[i])
	}
	offs := writeItems(t, w, items)
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)
	drives[2].Fail()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var recon int64
			for round := 0; round < 8; round++ {
				for i := range items {
					i = (i + g*3) % len(items)
					got, _, st, err := reader.ReadRange(sim.Second, info, offs[i], len(items[i]), ReadHome, nil)
					if err != nil {
						t.Errorf("goroutine %d item %d: %v", g, i, err)
						return
					}
					if !bytes.Equal(got, items[i]) {
						t.Errorf("goroutine %d item %d: wrong bytes", g, i)
						return
					}
					recon += st.ReconstructedReads
				}
			}
			if recon == 0 {
				t.Errorf("goroutine %d: no read was reconstructed with a drive failed", g)
			}
		}(g)
	}
	wg.Wait()
}

// TestRangeReconstructionAllocs pins the heap cost of a CRC-less range read
// rebuilt around a failed home drive. The donor ranges are read into pooled
// write-unit scratch, so no allocation is the size of the data.
func TestRangeReconstructionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	item := make([]byte, 8000)
	sim.NewRand(13).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	info := flushedUnsealed(t, w)
	reader := NewReader(cfg, drives, coder)
	dataSlot, _ := stripeSlots(cfg, 0)
	drives[aus[dataSlot[0]].Drive].Fail()

	read := func() {
		got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome, nil)
		if err != nil || !bytes.Equal(got, item) || st.ReconstructedReads != 1 {
			t.Fatalf("read: err=%v stats=%+v", err, st)
		}
	}
	read()
	if n := testing.AllocsPerRun(50, read); n > rangeReconstructionAllocs {
		t.Errorf("a reconstructed range read allocates %v objects, want at most %d", n, rangeReconstructionAllocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// rangeReconstructionAllocs is TestRangeReconstructionAllocs's bound: the
// returned slice, the donor list, the list of pooled buffers to give back,
// the coder's shard table, and six in erasure.Coder.ReconstructShard's
// inversion of the donors' rows.
const rangeReconstructionAllocs = 10

// TestReadRangeUnderFaults is a seeded property test of ReadRange under
// damage. Each case writes a segment of items that carry their own CRC and
// leaves it sealed or flushed-open, then makes at most M of its shards
// unavailable: a failed drive, a bad block, a flipped bit or a slot marked
// lost (its unit sometimes scribbled over, as a rebuild target's is). It
// then reads items with their check, and items and random ranges without
// one, in every ReadMode, some while random drives are programming. A read
// returns the bytes written or an error, never other bytes. With at most M
// shards unavailable, ReadHome and ReadAvoidBusy always succeed: either K
// donors are good or the home unit is, and the reader retries home when a
// reconstruction fails. A ReadAroundHome read may instead decline
// (ErrBusyPeers) or fail (ErrUnrecoverable, or ErrCheckFailed when its
// reconstruction fails the check), since it never retries home.
//
// A flushed unit of an open segment has no trailer CRC yet, so only a
// checked read can catch a flipped bit there, and only by the item's own
// check: a case that flips a bit in an open segment flips nothing else and
// reads only checked items. Such a read is rebuilt around its home drive,
// or read from home when the first read was the rebuild, and it succeeds
// when the item lies in one write unit of the damaged stripe. An item that
// spans two of that stripe's units may fail with ErrCheckFailed: the
// rebuild of one unit can take the flipped one as a donor, and with no unit
// CRC the reader cannot tell which of the two is wrong.
func TestReadRangeUnderFaults(t *testing.T) {
	cases := 500
	if testing.Short() {
		cases = 100
	}
	var seen faultCoverage
	for c := range cases {
		readUnderFaults(t, uint64(c), &seen)
	}
	// The cases must reach every branch the contract is about.
	if seen.stats.ReconstructedReads == 0 || seen.stats.CRCMismatches == 0 || seen.stats.BusyAvoided == 0 ||
		seen.stats.HomeRetries == 0 || seen.stats.InlineRepairs == 0 || seen.busyPeers == 0 || seen.openFlipsServed == 0 {
		t.Fatalf("the cases missed a branch: %+v, %d declined second arms, %d open-segment flips served",
			seen.stats, seen.busyPeers, seen.openFlipsServed)
	}
}

type faultCoverage struct {
	stats           ReadStats
	busyPeers       int
	openFlipsServed int // checked reads of an open segment that failed their check and were served right
}

// unitsIn returns how many write units of stripe s the logical range
// [off, off+n) touches.
func unitsIn(cfg Config, s int, off int64, n int) int {
	stripeBytes, wu := int64(cfg.StripeDataBytes()), int64(cfg.WriteUnit)
	base := int64(s) * stripeBytes
	lo, hi := max(off, base), min(off+int64(n), base+stripeBytes)
	if lo >= hi {
		return 0
	}
	return int((hi-1-base)/wu-(lo-base)/wu) + 1
}

func readUnderFaults(t *testing.T, seed uint64, seen *faultCoverage) {
	t.Helper()
	r := sim.NewRand(seed + 1)
	cfg := TestConfig()
	// Page-sized erase blocks let a bad block fail part of one unit; an
	// AU-sized one fails the whole shard, trailer included.
	eraseBlock := int(cfg.AUSize())
	if r.Intn(2) == 0 {
		eraseBlock = cfg.PageSize
	}
	drives, coder := newRigFor(t, cfg, eraseBlock, 6, 4)
	aus := segmentAUs(cfg, 6, 1)
	w, _ := NewWriter(cfg, drives, coder, 1, aus)
	items := make([][]byte, 1+r.Intn(11))
	for i := range items {
		payload := make([]byte, 1+r.Intn(30000))
		r.Bytes(payload)
		items[i] = withCRC(payload)
	}
	offs := writeItems(t, w, items)
	sealed := r.Intn(2) == 0
	var info SegmentInfo
	if sealed {
		var err error
		if info, _, err = w.Seal(0); err != nil {
			t.Fatal(err)
		}
	} else {
		info = flushedUnsealed(t, w)
	}

	// The reference is a fault-free read of every flushed byte.
	at := 10 * sim.Second
	size := int64(info.Stripes) * int64(cfg.StripeDataBytes())
	ref, _, _, err := NewReader(cfg, drives, coder).ReadRange(at, info, 0, int(size), ReadHome, nil)
	if err != nil {
		t.Fatalf("case %d: fault-free read: %v", seed, err)
	}
	for i, item := range items {
		if !bytes.Equal(ref[offs[i]:offs[i]+int64(len(item))], item) {
			t.Fatalf("case %d: fault-free read of item %d is wrong", seed, i)
		}
	}

	// Damage up to M slots in one stripe (a failed drive in all of them).
	wu := int64(cfg.WriteUnit)
	stripeBytes := int64(cfg.StripeDataBytes())
	hurt := r.Intn(info.Stripes)
	lost := make([]bool, len(aus))
	kinds := []string{"fail", "corrupt", "lost", "flip"}
	hurtSlots := r.Intn(cfg.ParityShards + 1)
	openFlip := !sealed && r.Intn(3) == 0
	if openFlip {
		hurtSlots = 1
	}
	var damage []string
	slots := make([]int, len(aus))
	for i := range slots {
		j := r.Intn(i + 1)
		slots[i], slots[j] = slots[j], i
	}
	for _, slot := range slots[:hurtSlots] {
		d := drives[aus[slot].Drive]
		unit := aus[slot].Offset(cfg) + int64(hurt)*wu
		kind := kinds[r.Intn(len(kinds))]
		switch {
		case openFlip:
			kind = "flip"
		case !sealed && kind == "flip":
			kind = "lost"
		}
		switch kind {
		case "fail":
			d.Fail()
		case "corrupt":
			d.CorruptBlock(unit + r.Int63n(wu))
		case "lost":
			lost[slot] = true
			if r.Intn(2) == 0 {
				junk := make([]byte, wu)
				r.Bytes(junk)
				if _, err := d.WriteAt(0, junk, unit); err != nil {
					t.Fatal(err)
				}
			}
		case "flip":
			d.FlipBit(unit+r.Int63n(wu), uint(r.Intn(8)))
		}
		damage = append(damage, fmt.Sprintf("%s slot %d", kind, slot))
	}
	reader := NewReader(cfg, drives, coder)
	reader.SetShardLost(func(_ SegmentID, slot int) bool { return lost[slot] })

	for i := 0; i < 8; i++ {
		at += sim.Second
		readAt := at
		if r.Intn(2) == 0 {
			for _, d := range drives {
				if r.Intn(3) == 0 && !d.Failed() {
					programAllDies(t, cfg, d, at)
				}
			}
			readAt += sim.Time(r.Intn(2000)) * sim.Microsecond
		}
		// A checked item, an item, a range anywhere, or a range of the
		// damaged stripe.
		var off int64
		var n int
		var check func([]byte) bool
		j := r.Intn(2*len(items) + 2)
		if openFlip {
			j %= len(items)
		}
		switch {
		case j < len(items):
			off, n, check = offs[j], len(items[j]), checkCRC
		case j < 2*len(items):
			off, n = offs[j-len(items)], len(items[j-len(items)])
		case j == 2*len(items):
			off = r.Int63n(size)
			n = 1 + r.Intn(int(size-off))
		default:
			start := int64(hurt) * stripeBytes
			off = start + r.Int63n(stripeBytes)
			n = 1 + r.Intn(int(start+stripeBytes-off))
		}
		mode := ReadMode(r.Intn(3))
		got, _, st, err := reader.ReadRange(readAt, info, off, n, mode, check)
		seen.stats.Add(st)
		switch {
		case err == nil:
			if !bytes.Equal(got, ref[off:off+int64(n)]) {
				t.Fatalf("case %d (sealed %v, %v) read %d [%d,+%d) mode %d checked %v: wrong bytes, stats %+v", seed, sealed, damage, i, off, n, mode, check != nil, st)
			}
			if openFlip && st.CRCMismatches > 0 {
				seen.openFlipsServed++
			}
		case mode == ReadAroundHome && errors.Is(err, ErrBusyPeers):
			seen.busyPeers++
		case mode == ReadAroundHome && (errors.Is(err, ErrUnrecoverable) || errors.Is(err, ErrCheckFailed)):
		case openFlip && errors.Is(err, ErrCheckFailed) && unitsIn(cfg, hurt, off, n) > 1:
		default:
			t.Fatalf("case %d (sealed %v, %v) read %d [%d,+%d) mode %d checked %v: %v, stats %+v", seed, sealed, damage, i, off, n, mode, check != nil, err, st)
		}
	}
}
