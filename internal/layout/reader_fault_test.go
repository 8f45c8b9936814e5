package layout

import (
	"bytes"
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

	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), false)
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
	got, _, st2, err := reader.ReadRange(sim.Second, info, offs[0], len(item), false)
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

	got, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), false)
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

	_, _, st, err := reader.ReadRange(sim.Second, info, offs[0], len(item), false)
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
