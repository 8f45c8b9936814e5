package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"purity/internal/sim"
)

// The lane tests drive the commit path at several lanes from many
// goroutines against a flat byte model, then crash-recover and verify
// byte for byte. Run under -race by scripts/check.sh. (The crash window
// between a write's group commit and its apply is swept by
// TestCrashSweep/lanes=L/lane.apply.before, which requires the write to
// survive.)

func laneTestConfig(lanes int) Config {
	cfg := TestConfig()
	cfg.CommitLanes = lanes
	cfg.Shelf.DriveConfig.Capacity = 200 * cfg.Layout.AUSize()
	return cfg
}

// TestLaneWritersSharedContent: 8 writers on 8 volumes across 4 lanes,
// drawing most payloads from a shared pool so lanes constantly race on
// the same dedup content — the recent index's stripes, the candidate
// search, and cross-lane dedup references all get hit at once.
func TestLaneWritersSharedContent(t *testing.T) {
	const (
		writers = 8
		volSize = int64(1 << 20)
		writes  = 120
	)
	cfg := laneTestConfig(4)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The shared pool: identical multi-sector payloads every writer keeps
	// re-writing, so duplicate runs appear across volumes (and so lanes).
	pool := make([][]byte, 16)
	for i := range pool {
		pool[i] = pattern(uint64(7000+i), (i%4+1)*8*512)
	}
	vols := make([]VolumeID, writers)
	models := make([][]byte, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("lane-%d", i), volSize)
		models[i] = make([]byte, volSize)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRand(uint64(i + 1))
			now := sim.Time(0)
			model := models[i]
			for j := 0; j < writes; j++ {
				var data []byte
				if r.Intn(10) < 7 {
					data = pool[r.Intn(len(pool))]
				} else {
					data = pattern(uint64(i)*1_000_000+uint64(j), (r.Intn(24)+1)*512)
				}
				off := int64(r.Intn(int(volSize/512)-len(data)/512)) * 512
				d, err := a.WriteAt(now, vols[i], off, data)
				if err != nil {
					t.Errorf("writer %d write %d: %v", i, j, err)
					return
				}
				now = d
				copy(model[off:], data)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	lt := a.LaneTelemetry()
	var commits int64
	for _, ls := range lt.Lanes {
		commits += ls.Commits
	}
	if commits != int64(writers*writes) {
		t.Fatalf("lane commits = %d, want %d", commits, writers*writes)
	}
	if lt.MaxQueueDepth < 1 {
		t.Fatalf("committer max queue depth = %d, want >= 1", lt.MaxQueueDepth)
	}

	// Crash: reopen from the shared shelf and verify every volume.
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	for i, vol := range vols {
		got, _, err := a2.ReadAt(0, vol, 0, int(volSize))
		if err != nil {
			t.Fatalf("vol %d: read after recovery: %v", i, err)
		}
		if !bytes.Equal(got, models[i]) {
			for j := range got {
				if got[j] != models[i][j] {
					t.Fatalf("vol %d: first mismatch at byte %d (sector %d)", i, j, j/512)
				}
			}
		}
	}
}

// TestLaneWritersOneVolumeWithGC: 8 goroutines hammer disjoint regions of
// one volume (one lane takes all commits — the group committer and lane
// mutex serialize them) while GC runs concurrently, exercising the world
// lock's exclusive/shared handoff under load.
func TestLaneWritersOneVolumeWithGC(t *testing.T) {
	const (
		writers   = 8
		regionLen = int64(256 << 10)
		writes    = 60
	)
	volSize := regionLen * writers
	cfg := laneTestConfig(4)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "shared", volSize)
	model := make([]byte, volSize)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := int64(i) * regionLen
			concurrentWriter(t, a, vol, uint64(i+1), off, regionLen, model[off:off+regionLen], writes)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			if _, _, err := a.RunGC(0); err != nil {
				t.Errorf("gc: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	got, _, err := a.ReadAt(0, vol, 0, int(volSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("live state diverged from model")
	}
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got, _, err = a2.ReadAt(0, vol, 0, int(volSize))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		for j := range got {
			if got[j] != model[j] {
				t.Fatalf("after recovery: first mismatch at byte %d (sector %d)", j, j/512)
			}
		}
	}
}

// TestLaneTelemetryCounters checks the observability surface directly:
// commits route by volume % lanes, queue waits and batch records account
// for every committed record, and FlushAll seals the lanes' open
// segments so a clean shutdown leaves nothing pending.
func TestLaneTelemetryCounters(t *testing.T) {
	cfg := laneTestConfig(2)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCreate(t, a, "a", 1<<20) // volume IDs are dense from 1
	v2 := mustCreate(t, a, "b", 1<<20)
	now := sim.Time(0)
	for i := 0; i < 10; i++ {
		if now, err = a.WriteAt(now, v1, int64(i)*4096, pattern(uint64(i), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = a.WriteAt(now, v2, 0, pattern(99, 4096)); err != nil {
		t.Fatal(err)
	}
	lt := a.LaneTelemetry()
	if len(lt.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(lt.Lanes))
	}
	lane1 := lt.Lanes[uint64(v1)%2]
	lane2 := lt.Lanes[uint64(v2)%2]
	if lane1.Commits != 10 || lane2.Commits != 1 {
		t.Fatalf("commit routing: lane[v1]=%d lane[v2]=%d, want 10 and 1", lane1.Commits, lane2.Commits)
	}
	var batched int64
	for _, ls := range lt.Lanes {
		batched += ls.BatchRecords
	}
	if batched != 11 {
		t.Fatalf("batch records = %d, want 11", batched)
	}
	if _, err := a.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	for _, ln := range a.lanes {
		ln.mu.Lock()
		open := ln.open != nil
		ln.mu.Unlock()
		if open {
			t.Fatal("lane still holds an open segment after FlushAll")
		}
	}
}
