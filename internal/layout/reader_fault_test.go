package layout

import (
	"bytes"
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

	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome)
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
	got, _, st2, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome)
	if err != nil || !bytes.Equal(got, item) {
		t.Fatalf("re-read after repair: %v", err)
	}
	if st2.CRCMismatches != 0 || st2.DirectShardReads == 0 {
		t.Fatalf("stats after repair = %+v, want clean direct read", st2)
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

	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome)
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

	_, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), ReadHome)
	if err == nil {
		t.Fatal("read succeeded with home corrupt and reconstruction impossible")
	}
	if st.HomeRetries == 0 {
		t.Fatalf("stats = %+v, want a home-drive retry before failing", st)
	}
	if st.HomeReadErrors < 2 {
		t.Fatalf("stats = %+v, want both home attempts counted", st)
	}
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
		got, _, st, err := reader.ReadRange(sim.Second, info, offs[rd.item], len(items[rd.item]), ReadHome)
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
					got, _, st, err := reader.ReadRange(sim.Second, info, offs[i], len(items[i]), ReadHome)
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
