package core

import (
	"bytes"
	"fmt"
	"testing"

	"purity/internal/relation"
	"purity/internal/sim"
)

// TestRecoveryAfterGC: GC moves data and retires segments; a crash right
// after must recover to the same contents.
func TestRecoveryAfterGC(t *testing.T) {
	a := newArray(t)
	keep := mustCreate(t, a, "keep", 2<<20)
	kept := pattern(1, 256<<10)
	mustWrite(t, a, keep, 0, kept)
	temp := mustCreate(t, a, "temp", 2<<20)
	for i := 0; i < 24; i++ {
		mustWrite(t, a, temp, int64(i)*(32<<10), pattern(uint64(i)+50, 32<<10))
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Delete(0, temp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RunGC(0); err != nil {
		t.Fatal(err)
	}
	// Crash without a checkpoint after GC.
	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := a2.ReadAt(0, keep, 0, len(kept))
	if err != nil || !bytes.Equal(got, kept) {
		t.Fatalf("survivor corrupted after GC+crash: %v", err)
	}
	if _, _, err := a2.ReadAt(0, temp, 0, 4096); err != ErrVolumeDeleted {
		t.Fatalf("deleted volume resurrected: %v", err)
	}
}

// TestRecoveryPreservesDedup: dedup references must survive a crash — the
// referenced data lives in a different volume's cblocks.
func TestRecoveryPreservesDedup(t *testing.T) {
	a := newArray(t)
	v1 := mustCreate(t, a, "v1", 2<<20)
	img := pattern(3, 128<<10)
	for off := 0; off < len(img); off += 32 << 10 {
		mustWrite(t, a, v1, int64(off), img[off:off+32<<10])
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	v2 := mustCreate(t, a, "v2", 2<<20)
	for off := 0; off < len(img); off += 32 << 10 {
		mustWrite(t, a, v2, int64(off), img[off:off+32<<10])
	}
	if a.Stats().DedupHits == 0 {
		t.Skip("no dedup hits to exercise")
	}
	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, vol := range []VolumeID{v1, v2} {
		got, _, err := a2.ReadAt(0, vol, 0, len(img))
		if err != nil || !bytes.Equal(got, img) {
			t.Fatalf("volume %d lost dedup'd data: %v", vol, err)
		}
	}
}

// TestDoubleCrash: recover, write more, crash again, recover again.
func TestDoubleCrash(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 2<<20)
	first := pattern(10, 64<<10)
	mustWrite(t, a, vol, 0, first)

	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	second := pattern(11, 64<<10)
	if _, err := a2.WriteAt(0, vol, 64<<10, second); err != nil {
		t.Fatal(err)
	}

	a3, _, err := OpenAt(TestConfig(), a2.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := a3.ReadAt(0, vol, 0, 64<<10)
	if err != nil || !bytes.Equal(got, first) {
		t.Fatal("first-generation data lost after double crash")
	}
	got, _, err = a3.ReadAt(0, vol, 64<<10, 64<<10)
	if err != nil || !bytes.Equal(got, second) {
		t.Fatal("second-generation data lost after double crash")
	}
}

// TestCrashDuringDegradedOperation: two drives out, writes continue, crash,
// recover with the drives still out.
func TestCrashDuringDegradedOperation(t *testing.T) {
	cfg := TestConfig()
	cfg.Shelf.Drives = 8 // headroom so 5-shard segments avoid failed drives
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := a.CreateVolume(0, "v", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(20, 128<<10)
	if _, err := a.WriteAt(0, vol, 0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	a.Shelf().PullDrive(0)
	a.Shelf().PullDrive(4)
	more := pattern(21, 64<<10)
	if _, err := a.WriteAt(0, vol, 1<<20, more); err != nil {
		t.Fatal(err)
	}
	// Crash with the drives still pulled.
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := a2.ReadAt(0, vol, 0, len(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded recovery lost base data: %v", err)
	}
	got, _, err = a2.ReadAt(0, vol, 1<<20, len(more))
	if err != nil || !bytes.Equal(got, more) {
		t.Fatalf("degraded recovery lost post-failure write: %v", err)
	}
}

// TestOutOfSpace: filling the array must fail cleanly, not corrupt.
func TestOutOfSpace(t *testing.T) {
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.Capacity = 8 * cfg.Layout.AUSize() // tiny drives
	cfg.CompressionEnabled = false
	cfg.DedupEnabled = false
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, _, err := a.CreateVolume(0, "big", 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	wrote := 0
	var lastErr error
	for i := 0; i < 4000; i++ {
		sim.NewRand(uint64(i)).Bytes(buf)
		if _, lastErr = a.WriteAt(0, vol, int64(i)*(32<<10), buf); lastErr != nil {
			break
		}
		wrote++
	}
	if lastErr == nil {
		t.Fatal("array never ran out of space")
	}
	if wrote == 0 {
		t.Fatal("no writes succeeded before out-of-space")
	}
	// Already-written data still reads.
	got, _, err := a.ReadAt(0, vol, 0, 32<<10)
	if err != nil {
		t.Fatalf("read after out-of-space: %v", err)
	}
	sim.NewRand(0).Bytes(buf)
	if !bytes.Equal(got, buf) {
		t.Fatal("data corrupted at out-of-space boundary")
	}
}

// TestLargeSingleWrite: a write spanning many cblocks and stripes.
func TestLargeSingleWrite(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "big", 8<<20)
	data := pattern(30, 2<<20) // 64 cblocks
	mustWrite(t, a, vol, 0, data)
	if !bytes.Equal(mustRead(t, a, vol, 0, len(data)), data) {
		t.Fatal("large write round trip failed")
	}
	// Odd-sized read crossing many cblock boundaries.
	got := mustRead(t, a, vol, 512*3, 512*301)
	if !bytes.Equal(got, data[512*3:512*304]) {
		t.Fatal("unaligned large read mismatch")
	}
}

// TestElideSurvivesRecovery: deletions are facts too — a deleted volume
// must stay deleted across a crash, with its elide predicates rebuilt.
func TestElideSurvivesRecovery(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "gone", 1<<20)
	mustWrite(t, a, vol, 0, pattern(40, 64<<10))
	if _, err := a.Delete(0, vol); err != nil {
		t.Fatal(err)
	}
	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a2.ReadAt(0, vol, 0, 4096); err != ErrVolumeDeleted {
		t.Fatalf("deleted volume readable after crash: %v", err)
	}
	if a2.ElideTableSize(relation.IDAddrs) == 0 {
		t.Fatal("elide table empty after recovery")
	}
}

// TestSnapshotChainReadsAfterManyGenerations: version history across many
// snapshot generations stays resolvable (and flattening keeps it shallow).
func TestSnapshotChainReadsAfterManyGenerations(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "gen", 1<<20)
	var snaps []VolumeID
	var gens [][]byte
	for g := 0; g < 6; g++ {
		data := pattern(uint64(100+g), 32<<10)
		mustWrite(t, a, vol, 0, data)
		gens = append(gens, data)
		snap, _, err := a.Snapshot(0, vol, fmt.Sprintf("s%d", g))
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RunGC(0); err != nil {
		t.Fatal(err)
	}
	for g, snap := range snaps {
		got := mustRead(t, a, snap, 0, 32<<10)
		if !bytes.Equal(got, gens[g]) {
			t.Fatalf("generation %d corrupted", g)
		}
	}
	depth, _, err := a.ResolveDepth(0, vol, 0, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if depth > 2 {
		t.Fatalf("volume depth %d after GC, want ≤ 2", depth)
	}
}

// TestCheckpointSurvivesNVRAMPressure: tiny NVRAM fills constantly, so
// writes keep taking the log-full fallback (laneCommitExclusive: quiesce,
// checkpoint, retry the append); everything must stay correct, live and
// after a crash.
func TestCheckpointSurvivesNVRAMPressure(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			cfg := TestConfig()
			cfg.CommitLanes = lanes
			// Small enough that the script's packed-frame records fill the
			// log and force a checkpoint.
			cfg.Shelf.NVRAMConfig.Capacity = 256 << 10
			a, err := Format(cfg)
			if err != nil {
				t.Fatal(err)
			}
			vol, _, err := a.CreateVolume(0, "v", 4<<20)
			if err != nil {
				t.Fatal(err)
			}
			model := make([]byte, 2<<20)
			r := sim.NewRand(9)
			for i := 0; i < 150; i++ {
				off := int64(r.Intn(3500)) * 512
				n := (r.Intn(32) + 1) * 512
				if off+int64(n) > int64(len(model)) {
					continue
				}
				data := pattern(uint64(i)+500, n)
				copy(model[off:], data)
				if _, err := a.WriteAt(0, vol, off, data); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
			}
			if a.Stats().Checkpoints == 0 {
				t.Fatal("NVRAM pressure never forced a checkpoint")
			}
			got, _, err := a.ReadAt(0, vol, 0, len(model))
			if err != nil || !bytes.Equal(got, model) {
				t.Fatal("model mismatch under NVRAM pressure")
			}
			a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			got, _, err = a2.ReadAt(0, vol, 0, len(model))
			if err != nil || !bytes.Equal(got, model) {
				t.Fatal("model mismatch after recovery under NVRAM pressure")
			}
		})
	}
}

// TestSpeculativeFrontierAvoidsBootWrites: the speculative set (§4.3) lets
// the frontier grow without a boot-region rewrite, because the next window
// was persisted with the previous checkpoint.
func TestSpeculativeFrontierAvoidsBootWrites(t *testing.T) {
	cfg := TestConfig()
	cfg.FrontierBatch = 6 // small windows: frequent refills
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "v", 16<<20)
	for i := 0; i < 200; i++ {
		mustWrite(t, a, vol, int64(i%400)*(32<<10), pattern(uint64(i), 32<<10))
	}
	st := a.Stats()
	if st.SpeculativePromotes == 0 {
		t.Fatalf("speculative set never promoted: %+v frontier writes=%d", st.SpeculativePromotes, st.FrontierWrites)
	}
	// Promotions must outnumber boot-region frontier writes: that is the
	// point of persisting the next window in advance.
	if st.FrontierWrites > st.SpeculativePromotes+st.Checkpoints {
		t.Fatalf("frontier writes %d not amortized (promotes %d, checkpoints %d)",
			st.FrontierWrites, st.SpeculativePromotes, st.Checkpoints)
	}
	// And the data is fine (and recoverable: speculative AUs are scanned).
	got := mustRead(t, a, vol, 0, 32<<10)
	_ = got
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a2.ReadAt(0, vol, 0, 32<<10); err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
}
