package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"purity/internal/layout"
	"purity/internal/nvram"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
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

// TestSegmentRelationsHoldOnlyWhatRecoveryReads: the checkpoint's segment
// map and the AU trailers are the segment table, so the two segment
// relations hold only what neither can know until the next checkpoint — a
// GC retirement in one, a rebuild's placement swap in the other. A crash
// after both, with the checkpoint from before them, must keep the retired
// segments out of the map and serve the swapped shards from their new AUs.
func TestSegmentRelationsHoldOnlyWhatRecoveryReads(t *testing.T) {
	cfg := TestConfig()
	a := newArray(t)
	keep := mustCreate(t, a, "keep", 2<<20)
	kept := pattern(1, 256<<10)
	mustWrite(t, a, keep, 0, kept)
	temp := mustCreate(t, a, "temp", 2<<20)
	for i := 0; i < 24; i++ {
		mustWrite(t, a, temp, int64(i)*(32<<10), pattern(uint64(i)+50, 32<<10))
	}
	now, err := a.FlushAll(0)
	if err != nil {
		t.Fatal(err)
	}
	epoch := a.epoch
	before := map[layout.SegmentID]bool{}
	for id := range a.segMap {
		before[id] = true
	}
	if now, err = a.Delete(now, temp); err != nil {
		t.Fatal(err)
	}
	rep, now, err := a.RunGC(now)
	if err != nil {
		t.Fatal(err)
	}
	dead := map[uint64]bool{}
	for id := range before {
		if _, ok := a.segMap[id]; !ok {
			dead[uint64(id)] = true
		}
	}
	if rep.SegmentsReclaimed == 0 || len(dead) != rep.SegmentsReclaimed {
		t.Fatalf("GC reclaimed %d segments, %d gone from the map", rep.SegmentsReclaimed, len(dead))
	}

	// Drive 5 holds no boot replica, so its replacement writes no
	// checkpoint.
	const victim = 5
	placed := map[layout.SegmentID][]layout.AU{}
	for id, info := range a.segMap {
		placed[id] = info.AUs
	}
	if err := a.Shelf().PullDrive(victim); err != nil {
		t.Fatal(err)
	}
	if now, err = a.ReplaceDrive(now, victim); err != nil {
		t.Fatal(err)
	}
	rrep, now, err := a.Rebuild(now, victim)
	if err != nil {
		t.Fatal(err)
	}
	type slot struct{ seg, shard uint64 }
	swapped := map[slot]layout.AU{}
	for id, aus := range placed {
		for shard, au := range a.segMap[id].AUs {
			if au != aus[shard] {
				swapped[slot{uint64(id), uint64(shard)}] = au
			}
		}
	}
	if rrep.SegmentsRebuilt == 0 || len(swapped) != rrep.SegmentsRebuilt {
		t.Fatalf("rebuild rebuilt %d segments, %d shards moved", rrep.SegmentsRebuilt, len(swapped))
	}
	if a.epoch != epoch {
		t.Fatalf("a checkpoint ran after FlushAll (epoch %d, want %d): recovery would not need the relations", a.epoch, epoch)
	}

	rows := 0
	if _, err := a.pyr[relation.IDSegments].Visit(now, nil, nil, true, func(f tuple.Fact) bool {
		rows++
		if row := relation.SegmentFromFact(f); row.State != relation.SegmentDead || !dead[row.Segment] {
			t.Errorf("segment relation row %+v is not a retirement", row)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != len(dead) {
		t.Errorf("segment relation holds %d rows, want one per retirement (%d)", rows, len(dead))
	}
	rows = 0
	if _, err := a.pyr[relation.IDSegmentAUs].Visit(now, nil, nil, true, func(f tuple.Fact) bool {
		rows++
		row := relation.SegmentAUFromFact(f)
		au, ok := swapped[slot{row.Segment, row.Shard}]
		if !ok || au != (layout.AU{Drive: int(row.Drive), Index: int64(row.AUIndex)}) {
			t.Errorf("AU relation row %+v is not a swap", row)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != len(swapped) {
		t.Errorf("AU relation holds %d rows, want one per swap (%d)", rows, len(swapped))
	}

	a2, _, err := OpenAt(cfg, a.Shelf(), now, false)
	if err != nil {
		t.Fatal(err)
	}
	for id := range dead {
		if _, ok := a2.segMap[layout.SegmentID(id)]; ok {
			t.Errorf("retired segment %d is back in the segment map", id)
		}
	}
	for s, au := range swapped {
		if got := a2.segMap[layout.SegmentID(s.seg)].AUs[s.shard]; got != au {
			t.Errorf("segment %d shard %d recovered on %+v, want the swapped-in %+v", s.seg, s.shard, got, au)
		}
	}
	if n := a2.Stats().LostShards; n != 0 {
		t.Errorf("%d shards lost after recovery", n)
	}
	if got := mustRead(t, a2, keep, 0, len(kept)); !bytes.Equal(got, kept) {
		t.Fatal("survivor corrupted after GC, rebuild and crash")
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
// records keep taking the log-full fallback (commitExclusiveLocked under
// the exclusive world lock: checkpoint, retry the append) — lane writes
// through laneCommitExclusive, and in the concurrent case catalog and GC
// facts records too; everything must stay correct, live and after a crash.
func TestCheckpointSurvivesNVRAMPressure(t *testing.T) {
	t.Run("lanes=4/concurrent", nvramPressureConcurrent)
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

// nvramPressureConcurrent: four writers on four volumes at lanes 4 keep
// filling a 64 KiB log (writers 0 and 1 draw half their payloads from one
// content pool, so their lanes dedup against each other) and race each
// other through the shared-to-exclusive world fallback. Every stepEvery
// acked writes the main goroutine holds the writers at a test-level gate,
// fills what is left of the log, and runs a Snapshot, Clone, Delete or
// RunGC step, whose first facts record then meets a full log. The gate
// makes a snapshot's frozen image exact and every checkpoint taken during
// the step the step's own: with CheckpointEvery out of reach, one can only
// be a facts commit's log-full fallback.
func nvramPressureConcurrent(t *testing.T) {
	const (
		writers   = 4
		volSize   = int64(1 << 20)
		writes    = 120
		stepEvery = 30
	)
	cfg := laneTestConfig(4)
	cfg.Shelf.NVRAMConfig.Capacity = 64 << 10
	cfg.CheckpointEvery = 1 << 30
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := make([][]byte, 8)
	for i := range pool {
		pool[i] = pattern(uint64(9000+i), (i%4+1)*8*512)
	}
	vols := make([]VolumeID, writers)
	models := make([][]byte, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("w%d", i), volSize)
		models[i] = make([]byte, volSize)
	}

	var gate sync.RWMutex
	progress := make(chan struct{}, writers*writes)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRand(uint64(i + 11))
			for j := 0; j < writes; j++ {
				data := pattern(uint64(i)<<32|uint64(j), (r.Intn(32)+1)*512)
				if i < 2 && r.Intn(2) == 0 {
					data = pool[r.Intn(len(pool))]
				}
				off := int64(r.Intn(int(volSize)/512-len(data)/512)) * 512
				gate.RLock()
				_, err := a.WriteAt(0, vols[i], off, data)
				if err == nil {
					copy(models[i][off:], data)
				}
				gate.RUnlock()
				if err != nil {
					t.Errorf("writer %d write %d: %v", i, j, err)
					return
				}
				progress <- struct{}{}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(progress)
	}()

	// frozen maps every snapshot and clone to the image it must read back.
	frozen := map[VolumeID][]byte{}
	var snaps []VolumeID // live snapshots, oldest first
	var factsCkpts int64
	acked := 0
	for range progress {
		if acked++; acked%stepEvery != 0 || t.Failed() {
			continue
		}
		step := acked / stepEvery
		gate.Lock()
		fillLog(t, a)
		before := a.Stats().Checkpoints
		switch step % 4 {
		case 1:
			w := step / 4 % writers
			id, _, err := a.Snapshot(0, vols[w], fmt.Sprintf("snap%d", step))
			if err != nil {
				t.Errorf("snapshot: %v", err)
				break
			}
			frozen[id] = append([]byte(nil), models[w]...)
			snaps = append(snaps, id)
		case 2:
			src := snaps[len(snaps)-1]
			id, _, err := a.Clone(0, src, fmt.Sprintf("clone%d", step))
			if err != nil {
				t.Errorf("clone: %v", err)
				break
			}
			frozen[id] = frozen[src]
		case 3:
			// The oldest snapshot goes; a clone of it keeps its medium
			// reachable.
			if _, err := a.Delete(0, snaps[0]); err != nil {
				t.Errorf("delete: %v", err)
				break
			}
			delete(frozen, snaps[0])
			snaps = snaps[1:]
		case 0:
			if _, _, err := a.RunGC(0); err != nil {
				t.Errorf("gc: %v", err)
			}
		}
		factsCkpts += a.Stats().Checkpoints - before
		gate.Unlock()
	}
	if t.Failed() {
		return
	}
	if factsCkpts == 0 {
		t.Fatal("no step's facts commit checkpointed: the full log never reached the log-full fallback")
	}
	var commits int64
	for _, ls := range a.LaneTelemetry().Lanes {
		commits += ls.Commits
	}
	if commits != writers*writes {
		t.Fatalf("lanes counted %d commits, want one commit per write (%d), counted on its lane", commits, writers*writes)
	}

	check := func(a *Array, when string) {
		t.Helper()
		for i, vol := range vols {
			if got := mustRead(t, a, vol, 0, int(volSize)); !bytes.Equal(got, models[i]) {
				t.Fatalf("%s: volume %d differs from its model", when, vol)
			}
		}
		for id, img := range frozen {
			if got := mustRead(t, a, id, 0, int(volSize)); !bytes.Equal(got, img) {
				t.Fatalf("%s: volume %d differs from its frozen image", when, id)
			}
		}
	}
	check(a, "live")
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	check(a2, "after recovery")
}

// fillLog appends empty facts records through nvramAppend, as exclusive
// records, until the NVRAM log is full: the next record of any size takes
// the log-full fallback. An empty record replays as nothing. No lane commit
// may be in flight.
func fillLog(t *testing.T, a *Array) {
	t.Helper()
	rec := encodeFactsRecord(relation.IDVolumes, nil)
	a.world.Lock()
	defer a.world.Unlock()
	for {
		_, _, err := a.nvramAppend(0, nil, rec)
		if errors.Is(err, nvram.ErrFull) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogFullRefusesSharedWorld pins commitExclusiveLocked's guard: with the
// log full and world held only shared, it must return the append's error
// and not checkpoint — a checkpoint trims the whole log, and a lane could
// hold a durable record it has yet to apply. Held exclusively, the same
// call checkpoints and succeeds.
func TestLogFullRefusesSharedWorld(t *testing.T) {
	cfg := TestConfig()
	cfg.Shelf.NVRAMConfig.Capacity = 16 << 10
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, a)
	rec := encodeFactsRecord(relation.IDVolumes, nil)
	nv := a.shelf.NVRAM(0)
	head, base, ckpts := nv.Head(), nv.Base(), a.Stats().Checkpoints

	a.world.RLock()
	a.mu.Lock()
	_, _, err = a.commitExclusiveLocked(0, rec)
	a.mu.Unlock()
	a.world.RUnlock()
	if !errors.Is(err, nvram.ErrFull) {
		t.Fatalf("log full under a shared world lock: err = %v, want %v", err, nvram.ErrFull)
	}
	if nv.Head() != head || nv.Base() != base || a.Stats().Checkpoints != ckpts {
		t.Fatalf("log full under a shared world lock trimmed or appended: head %d→%d, base %d→%d, checkpoints %d→%d",
			head, nv.Head(), base, nv.Base(), ckpts, a.Stats().Checkpoints)
	}

	a.world.Lock()
	a.mu.Lock()
	_, _, err = a.commitExclusiveLocked(0, rec)
	a.mu.Unlock()
	a.world.Unlock()
	if err != nil {
		t.Fatalf("log full under the exclusive world lock: %v", err)
	}
	if a.Stats().Checkpoints != ckpts+1 || nv.Base() != head {
		t.Fatalf("log full under the exclusive world lock: checkpoints %d→%d, base %d→%d, want one checkpoint trimming to %d",
			ckpts, a.Stats().Checkpoints, base, nv.Base(), head)
	}
}

// TestCommitPointGuardsPanic pins the commit point's checked preconditions:
// a fact apply or a rebuild's shard copy with the zero receipt (no append
// and no read-back vouches for it) panics, and so does a flush watermark
// advance while world is held only shared, as a lane holds it — other
// lanes' seqs may then be allocated but not yet in the log.
func TestCommitPointGuardsPanic(t *testing.T) {
	a := newArray(t)
	for _, tc := range []struct {
		name, want string
		fn         func()
	}{
		{"apply without receipt", "without the receipt", func() {
			a.mu.Lock()
			defer a.mu.Unlock()
			_ = a.applyFactsLocked(nvram.Receipt{}, relation.IDVolumes, nil)
		}},
		{"watermark under shared world", "without the world lock held exclusively", func() {
			a.world.RLock()
			defer a.world.RUnlock()
			a.mu.Lock()
			defer a.mu.Unlock()
			a.advanceWatermark()
		}},
		{"shard rewrite without receipt", "without the receipt", func() {
			_, _ = layout.RewriteShard(nvram.Receipt{}, 0, a.cfg.Layout, a.shelf.Drive(0), layout.AU{}, layout.AUTrailer{}, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic containing %q", r, tc.want)
				}
			}()
			tc.fn()
		})
	}
}

// TestWatermarkGuardBesideWaitingWriter: a shared world hold beside a
// writer waiting on world.Lock makes worldExclusive's TryRLock probe fail
// as an exclusive hold does, so the probe alone lets a lane-like caller
// advance the watermark. The held set of the lock-order check knows the
// caller holds world only shared, and the advance panics.
func TestWatermarkGuardBesideWaitingWriter(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the lock-order check, whose held set this guard reads, runs on amd64 only")
	}
	a := newArray(t)
	a.world.RLock()
	writerDone := make(chan struct{})
	go func() {
		a.world.Lock()
		a.world.Unlock()
		close(writerDone)
	}()
	for a.world.TryRLock() { // until the writer waits
		a.world.RUnlock()
		runtime.Gosched()
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		a.mu.Lock()
		defer a.mu.Unlock()
		a.advanceWatermark()
		return nil
	}()
	a.world.RUnlock()
	<-writerDone
	if want := "without the world lock held exclusively"; !strings.Contains(fmt.Sprint(got), want) {
		t.Fatalf("watermark advanced under a shared hold beside a waiting writer: recovered %v, want a panic containing %q", got, want)
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
