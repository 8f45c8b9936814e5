package core

import (
	"bytes"
	"testing"

	"purity/internal/relation"
	"purity/internal/sim"
)

// TestBackgroundDedupMergesMissedDuplicates reproduces §4.7's deferred
// pass: with inline dedup off, duplicates land as separate copies; the
// background pass folds them and GC reclaims the space.
func TestBackgroundDedupMergesMissedDuplicates(t *testing.T) {
	cfg := TestConfig()
	cfg.DedupEnabled = false // force the inline path to miss everything
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	img := pattern(1, 256<<10)
	v1, _, err := a.CreateVolume(0, "v1", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := a.CreateVolume(0, "v2", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(img); off += 32 << 10 {
		mustWrite(t, a, v1, int64(off), img[off:off+32<<10])
		mustWrite(t, a, v2, int64(off), img[off:off+32<<10])
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}

	rep, _, err := a.BackgroundDedup(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicatesMerged == 0 || rep.RefsRewritten == 0 {
		t.Fatalf("background pass found nothing: %+v", rep)
	}
	if rep.BytesFreed == 0 {
		t.Fatalf("no bytes freed: %+v", rep)
	}
	// Both volumes still read correctly through the redirected mappings.
	for _, vol := range []VolumeID{v1, v2} {
		if !bytes.Equal(mustRead(t, a, vol, 0, len(img)), img) {
			t.Fatalf("volume %d corrupted by background dedup", vol)
		}
	}
	// The merge made segments reclaimable.
	gcRep, _, err := a.RunGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if gcRep.SegmentsReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing after background dedup: %+v", gcRep)
	}
	for _, vol := range []VolumeID{v1, v2} {
		if !bytes.Equal(mustRead(t, a, vol, 0, len(img)), img) {
			t.Fatalf("volume %d corrupted by GC after background dedup", vol)
		}
	}
	// And everything survives a crash.
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, vol := range []VolumeID{v1, v2} {
		got, _, err := a2.ReadAt(0, vol, 0, len(img))
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("volume %d lost after dedup+GC+crash: %v", vol, err)
		}
	}
}

// TestBackgroundDedupIdempotent: running the pass twice merges nothing new.
func TestBackgroundDedupIdempotent(t *testing.T) {
	cfg := TestConfig()
	cfg.DedupEnabled = false
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := a.CreateVolume(0, "v", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	img := pattern(2, 64<<10)
	mustWrite(t, a, v1, 0, img)
	mustWrite(t, a, v1, 1<<20, img)
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	rep1, _, err := a.BackgroundDedup(0)
	if err != nil {
		t.Fatal(err)
	}
	rep2, _, err := a.BackgroundDedup(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.DuplicatesMerged != 0 {
		t.Fatalf("second pass merged again: first %+v, second %+v", rep1, rep2)
	}
}

// TestWornFlashArray reproduces §5.1's worn-out-flash experiment: drives
// whose blocks fail after a tiny P/E budget, hammered with overwrites and
// GC cycles. Application-level reads must never return wrong data — RS
// reconstruction and scrub repair absorb the failures, exactly the paper's
// "we did not encounter any application-level hardware errors".
func TestWornFlashArray(t *testing.T) {
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.PELimit = 2
	cfg.Shelf.DriveConfig.WearFailureProb = 0.3
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := a.CreateVolume(0, "worn", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 1<<20)
	now := sim.Time(0)
	for pass := 0; pass < 4; pass++ {
		for off := 0; off+32<<10 <= len(model); off += 32 << 10 {
			data := pattern(uint64(pass)*1000+uint64(off), 32<<10)
			copy(model[off:], data)
			d, err := a.WriteAt(now, vol, int64(off), data)
			if err != nil {
				t.Fatalf("pass %d write: %v", pass, err)
			}
			now = d
		}
		if _, now, err = a.RunGC(now); err != nil {
			t.Fatal(err)
		}
		if _, now, err = a.Scrub(now); err != nil {
			t.Fatal(err)
		}
		got, d, err := a.ReadAt(now, vol, 0, len(model))
		if err != nil {
			t.Fatalf("pass %d read: %v", pass, err)
		}
		now = d
		if !bytes.Equal(got, model) {
			t.Fatalf("pass %d: wrong data from worn array", pass)
		}
	}
	st := a.Stats()
	if st.FlashStats.MaxWear <= cfg.Shelf.DriveConfig.PELimit {
		t.Skipf("workload never exceeded the P/E rating (max wear %d)", st.FlashStats.MaxWear)
	}
	t.Logf("max wear %d (rating %d), bad blocks %d, scrub repairs kept data intact",
		st.FlashStats.MaxWear, cfg.Shelf.DriveConfig.PELimit, st.FlashStats.BadBlocks)
}

// TestProvisionedBytesAccounting checks the thin-provisioning stat.
func TestProvisionedBytesAccounting(t *testing.T) {
	a := newArray(t)
	mustCreate(t, a, "a", 8<<20)
	v := mustCreate(t, a, "b", 16<<20)
	if got := a.Stats().ProvisionedBytes; got != 24<<20 {
		t.Fatalf("ProvisionedBytes = %d, want %d", got, 24<<20)
	}
	if _, err := a.Delete(0, v); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().ProvisionedBytes; got != 8<<20 {
		t.Fatalf("ProvisionedBytes after delete = %d, want %d", got, 8<<20)
	}
	// Thin: provisioning 24 MiB consumed almost no flash.
	if phys := a.Stats().PhysicalBytes; phys != 0 {
		t.Fatalf("thin volumes consumed %d physical bytes", phys)
	}
	_ = relation.IDVolumes
}
