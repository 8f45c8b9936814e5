package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"purity/internal/cblock"
	"purity/internal/relation"
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

// TestDedupSearchBesideLanes runs the duplicate search where it runs —
// with world held shared and no a.mu, beside other lanes' placement and
// apply and a reader — under -race. Four writers on four volumes use four
// commit lanes. Volumes 0 and 1 are written from one small pool of extent
// templates, so each finds the other's sealed copies; volumes 2 and 3 are
// written with unique data. BackgroundEvery and MemtableFlushRows are
// small, so the dedup pyramid is flushed and merged while searches read
// it. Meanwhile a reader checks that every extent of the sharing volumes
// holds zeros or a whole template. Afterwards every committed extent was
// counted once, as a recent-index hit, a relation hit or a miss; every
// volume reads back its writer's last acknowledged bytes; and every
// pyramid's cached pages match their checksums.
func TestDedupSearchBesideLanes(t *testing.T) {
	const (
		writers   = 4
		extent    = cblock.MaxBytes
		slots     = 12 // extent slots per volume
		writes    = 60
		templates = 6
	)
	cfg := TestConfig()
	cfg.CommitLanes = 4
	cfg.BackgroundEvery = 8
	cfg.MemtableFlushRows = 64
	cfg.Shelf.DriveConfig.Capacity = 200 * cfg.Layout.AUSize()
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	template := make([][]byte, templates)
	for i := range template {
		template[i] = pattern(uint64(i)+1, extent)
	}
	vols := make([]VolumeID, writers)
	models := make([][]byte, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("dd-%d", i), slots*extent)
		models[i] = make([]byte, slots*extent)
	}

	var extents atomic.Int64
	var writing sync.WaitGroup
	for i := 0; i < writers; i++ {
		i := i
		writing.Add(1)
		go func() {
			defer writing.Done()
			r := sim.NewRand(uint64(i) + 1)
			now := sim.Time(0)
			for j := 0; j < writes; j++ {
				slot, n := r.Intn(slots), 1+r.Intn(2)
				n = min(n, slots-slot)
				data := make([]byte, 0, n*extent)
				for k := 0; k < n; k++ {
					if i < 2 {
						data = append(data, template[r.Intn(templates)]...)
					} else {
						data = append(data, pattern(uint64(i)<<32|uint64(j*2+k), extent)...)
					}
				}
				d, err := a.WriteAt(now, vols[i], int64(slot*extent), data)
				if err != nil {
					t.Errorf("writer %d: write %d: %v", i, j, err)
					return
				}
				now = d
				exts, _ := cblock.SplitWrite(len(data))
				extents.Add(int64(len(exts)))
				copy(models[i][slot*extent:], data)
			}
		}()
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		r := sim.NewRand(99)
		zero := make([]byte, extent)
		for {
			select {
			case <-stop:
				return
			default:
			}
			vol, slot := r.Intn(2), r.Intn(slots)
			got, _, err := a.ReadAt(0, vols[vol], int64(slot*extent), extent)
			if err != nil {
				t.Errorf("reader: volume %d slot %d: %v", vol, slot, err)
				return
			}
			ok := bytes.Equal(got, zero)
			for _, tm := range template {
				ok = ok || bytes.Equal(got, tm)
			}
			if !ok {
				t.Errorf("reader: volume %d slot %d holds neither zeros nor a template", vol, slot)
				return
			}
		}
	}()
	writing.Wait()
	close(stop)
	reading.Wait()
	if t.Failed() {
		return
	}

	st := a.Stats()
	if got := st.DedupRecentHits + st.DedupRelationHits + st.DedupMisses; got != extents.Load() {
		t.Errorf("recent hits %d + relation hits %d + misses %d = %d, want the %d extents committed",
			st.DedupRecentHits, st.DedupRelationHits, st.DedupMisses, got, extents.Load())
	}
	if st.DedupRecentHits+st.DedupRelationHits != st.DedupHits ||
		st.DedupRecentBlocks+st.DedupRelationBlocks != st.InlineDupBlocks {
		t.Errorf("the tiers count %d+%d hits of %d+%d blocks, the totals %d hits of %d blocks",
			st.DedupRecentHits, st.DedupRelationHits, st.DedupRecentBlocks, st.DedupRelationBlocks,
			st.DedupHits, st.InlineDupBlocks)
	}
	t.Logf("%d extents: %d recent hits, %d relation hits, %d misses; %d relation probes, %d false candidates, %d unsealed rejects",
		extents.Load(), st.DedupRecentHits, st.DedupRelationHits, st.DedupMisses,
		st.DedupRelationProbes, st.DedupFalseCandidates, st.DedupUnsealedRejects)
	if st.DedupHits == 0 || st.DedupMisses == 0 {
		t.Errorf("dedup hits %d, misses %d: the writers shared too little, or too much", st.DedupHits, st.DedupMisses)
	}
	if flushed, merged := a.pyr[relation.IDDedup].RowCounts(); flushed == 0 || merged == 0 {
		t.Errorf("the dedup pyramid flushed %d rows and merged %d: the searches ran beside too little", flushed, merged)
	}
	for i, vol := range vols {
		if got := mustRead(t, a, vol, 0, slots*extent); !bytes.Equal(got, models[i]) {
			t.Errorf("volume %d differs from its writer's last acknowledged bytes", i)
		}
	}
	if _, err := a.Check(0); err != nil {
		t.Error(err)
	}
}
