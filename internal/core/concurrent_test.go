package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"purity/internal/sim"
)

// The concurrent-writers tests exercise the parallel write path the way
// internal/server drives it: N goroutines calling WriteAt at once (on the
// default single commit lane), each with its own virtual clock. Afterwards
// the array crash-
// recovers (boot region + frontier scan + NVRAM replay) and every byte is
// checked against a flat model. Run under -race (scripts/check.sh does) —
// the monotonic-facts argument of §3.2 is only credible if the detector
// stays quiet while the model stays exact.

// concurrentWriter runs one goroutine's randomized write stream against a
// volume region, mirroring every write into model (which it owns
// exclusively: region-disjoint writers share one model slice safely).
func concurrentWriter(t *testing.T, a *Array, vol VolumeID, seed uint64, regionOff, regionLen int64, model []byte, writes int) {
	r := sim.NewRand(seed)
	now := sim.Time(0)
	for i := 0; i < writes; i++ {
		maxSectors := int(regionLen / 512)
		off := int64(r.Intn(maxSectors-1)) * 512
		n := (r.Intn(24) + 1) * 512
		if off+int64(n) > regionLen {
			n = int(regionLen - off)
		}
		data := pattern(seed*100000+uint64(i), n)
		d, err := a.WriteAt(now, vol, regionOff+off, data)
		if err != nil {
			t.Errorf("writer %d: write %d: %v", seed, i, err)
			return
		}
		now = d
		copy(model[off:], data)
	}
}

// TestConcurrentWritersDisjointVolumes: N goroutines, each writing its own
// volume, then crash-recover and verify all N against their models.
func TestConcurrentWritersDisjointVolumes(t *testing.T) {
	const (
		writers = 8
		volSize = int64(1 << 20)
		writes  = 120
	)
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.Capacity = 200 * cfg.Layout.AUSize()
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vols := make([]VolumeID, writers)
	models := make([][]byte, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("cw-%d", i), volSize)
		models[i] = make([]byte, volSize)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrentWriter(t, a, vols[i], uint64(i+1), 0, volSize, models[i], writes)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
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

// TestConcurrentWritersOneVolume: N goroutines writing disjoint offset
// regions of a single volume — the write-sharing pattern a clustered
// application (one LUN, many clients) produces.
func TestConcurrentWritersOneVolume(t *testing.T) {
	const (
		writers   = 8
		regionLen = int64(512 << 10)
		writes    = 100
	)
	volSize := regionLen * writers
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.Capacity = 200 * cfg.Layout.AUSize()
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
	wg.Wait()
	if t.Failed() {
		return
	}

	// Verify live, then crash-recover and verify again.
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

// TestConcurrentWritersWithReaders mixes concurrent writers with readers
// and background GC — reads may see any committed version of in-flight
// regions, so only the writers' own regions are checked at the end.
func TestConcurrentWritersWithReaders(t *testing.T) {
	const (
		writers   = 4
		regionLen = int64(256 << 10)
		writes    = 60
	)
	volSize := regionLen * writers
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.Capacity = 200 * cfg.Layout.AUSize()
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "rw", volSize)
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
	// Readers sweep the volume while writes land; results are unspecified
	// mid-flight but must never error.
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRand(uint64(9000 + i))
			for j := 0; j < 100; j++ {
				off := int64(r.Intn(int(volSize/512)-8)) * 512
				if _, _, err := a.ReadAt(0, vol, off, 8*512); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
			}
		}()
	}
	// One GC goroutine exercises the maintenance path under load.
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
		t.Fatal("final state diverged from model")
	}
}
