package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"purity/internal/layout"
	"purity/internal/sim"
)

// The lane tests drive the commit path at several lanes from many
// goroutines against a flat byte model, then crash-recover and verify
// byte for byte. Run under -race by scripts/check.sh. (The crash window
// between a write's NVRAM append and its apply is swept by
// TestCrashSweep/lanes=L/lane.apply.before in this directory's external
// test package, over internal/crashsweep, which requires the write to
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
	if lt.MaxQueueDepth != 1 {
		t.Fatalf("committer max queue depth = %d, want 1", lt.MaxQueueDepth)
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
// one volume (one lane takes all commits — the NVRAM append mutex and
// lane mutex serialize them) while GC runs concurrently, exercising the world
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

// TestLaneMirrorsAgreeOnRecordOrder pins the one property nvAppendMu
// exists for: every NVRAM mirror holds the same records in the same order,
// payload for payload, since replay trusts the surviving mirror with the
// longest log. 8 writers on 4 volumes commit through 4 lanes while another
// goroutine creates and snapshots volumes, whose exclusive facts records
// cut in between the lanes' records. Background steps are off, so no
// checkpoint trims the logs and every record of the run is compared.
func TestLaneMirrorsAgreeOnRecordOrder(t *testing.T) {
	const (
		writers   = 8
		vols      = 4
		regionLen = int64(256 << 10)
		writes    = 100
		catalog   = 12
	)
	cfg := laneTestConfig(4)
	cfg.Shelf.NVRAM = 2
	cfg.BackgroundEvery = 1 << 30
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]VolumeID, vols)
	for i := range ids {
		ids[i] = mustCreate(t, a, fmt.Sprintf("mirror-%d", i), regionLen*writers/vols)
	}
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := int64(i/vols) * regionLen
			concurrentWriter(t, a, ids[i%vols], uint64(i+1), off, regionLen, make([]byte, regionLen), writes)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < catalog; j++ {
			id, _, err := a.CreateVolume(0, fmt.Sprintf("catalog-%d", j), 1<<20)
			if err == nil {
				_, _, err = a.Snapshot(0, id, fmt.Sprintf("catalog-%d-snap", j))
			}
			if err != nil {
				t.Errorf("catalog step %d: %v", j, err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	want := a.shelf.NVRAM(0).Records()
	if len(want) < writers*writes {
		t.Fatalf("mirror 0 holds %d records, want at least one per write (%d): a checkpoint trimmed the log", len(want), writers*writes)
	}
	for m := 1; m < a.shelf.NumNVRAM(); m++ {
		got := a.shelf.NVRAM(m).Records()
		if len(got) != len(want) {
			t.Fatalf("mirror %d holds %d records, mirror 0 holds %d", m, len(got), len(want))
		}
		for i := range want {
			if got[i].LSN != want[i].LSN || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("mirror %d disagrees with mirror 0 at record %d (LSN %d): the mirrors saw different append orders", m, i, want[i].LSN)
			}
		}
	}
}

// TestLaneTelemetryCounters checks the observability surface directly:
// commits route by volume % lanes, each write is one commit counted on
// its own lane, and FlushAll seals the lanes' open segments so a clean
// shutdown leaves nothing pending.
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
	assertDataSlotsEmpty(t, a)
}

// assertDataSlotsEmpty fails if, after a FlushAll, any slot but the
// metadata one still holds a writer (FlushAll seals every slot and then
// checkpoints, and the checkpoint's own pages reopen classMeta), or the
// open-segment index disagrees with the slots.
func assertDataSlotsEmpty(t *testing.T, a *Array) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	occupied := 0
	for i := range a.slots {
		s := &a.slots[i]
		s.mu.Lock()
		w := s.w
		s.mu.Unlock()
		if w == nil {
			continue
		}
		if segClass(i) != classMeta {
			t.Fatalf("slot %d still holds an open segment after FlushAll", i)
		}
		occupied++
		if ref := a.openByID[w.Info().ID]; ref.slot != s || ref.w != w {
			t.Fatalf("slot %d's segment %d is not in the open-segment index", i, w.Info().ID)
		}
	}
	if len(a.openByID) != occupied {
		t.Fatalf("open-segment index has %d entries, %d slots are occupied", len(a.openByID), occupied)
	}
}

// laneWritersUnderMaintenance runs 2 writers per lane, each on its own
// volume, writing payload(w, j) at write-once offsets, while one goroutine
// alternates FlushAll and RunGC every maintStep acknowledged writes and one
// reader re-reads acknowledged offsets. Each offset is written once, so an
// acknowledged write's content is fixed and the reader needs no model lock.
// It returns after a final FlushAll with every write read back.
func laneWritersUnderMaintenance(t *testing.T, a *Array, writes, writeLen, maintStep int, payload func(w, j int) []byte) {
	t.Helper()
	writers := 2 * len(a.lanes)
	vols := make([]VolumeID, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("writer-%d", i), int64(writes*writeLen))
	}
	check := func(w, j int) error {
		got, _, err := a.ReadAt(0, vols[w], int64(j)*int64(writeLen), writeLen)
		if err != nil {
			return fmt.Errorf("writer %d write %d: read: %v", w, j, err)
		}
		if !bytes.Equal(got, payload(w, j)) {
			return fmt.Errorf("writer %d write %d: acknowledged data does not read back", w, j)
		}
		return nil
	}

	acked := make([]atomic.Int64, writers)
	// One tick per maintStep acknowledged writes; sized to hold them all so
	// a writer never blocks on maintenance.
	ticks := make(chan struct{}, writers*writes/maintStep)
	var total atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			now := sim.Time(0)
			for j := 0; j < writes; j++ {
				d, err := a.WriteAt(now, vols[w], int64(j)*int64(writeLen), payload(w, j))
				if err != nil {
					t.Errorf("writer %d write %d: %v", w, j, err)
					return
				}
				now = d
				acked[w].Store(int64(j + 1))
				if total.Add(1)%int64(maintStep) == 0 {
					ticks <- struct{}{}
				}
			}
		}()
	}
	writersDone := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // maintenance
		defer bg.Done()
		round := 0
		for range ticks {
			if round++; round%2 == 1 {
				if _, err := a.FlushAll(0); err != nil {
					t.Errorf("FlushAll: %v", err)
				}
			} else if _, _, err := a.RunGC(0); err != nil {
				t.Errorf("gc: %v", err)
			}
		}
	}()
	go func() { // reader
		defer bg.Done()
		r := sim.NewRand(99)
		for {
			select {
			case <-writersDone:
				return
			default:
			}
			w := r.Intn(writers)
			if n := int(acked[w].Load()); n > 0 {
				if err := check(w, r.Intn(n)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(ticks)
	close(writersDone)
	bg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for j := 0; j < writes; j++ {
			if err := check(w, j); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLaneRotationUnderContention fills segments every few writes on every
// lane while maintenance seals and reclaims under the writers: 4 lanes × 2
// writers of 64 KiB unique writes.
func TestLaneRotationUnderContention(t *testing.T) {
	const writeLen = 64 << 10
	a, err := Format(laneTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	laneWritersUnderMaintenance(t, a, 48, writeLen, 48, func(w, j int) []byte {
		return pattern(uint64(w)*1000+uint64(j)+1, writeLen)
	})
	for _, ls := range a.LaneTelemetry().Lanes {
		if ls.Rotations == 0 {
			t.Errorf("lane %d never rotated a full segment", ls.Lane)
		}
	}
	assertDataSlotsEmpty(t, a)
}

// TestLaneMultiExtentWriters runs four-extent writes through the
// search-then-pack placement on every lane at once: 4 lanes × 2 writers of
// 128 KiB writes against sealed golden data — every other write all
// duplicate (nothing is packed), the rest alternating all unique (each
// extent misses and is packed where it is placed) and unique / duplicate
// interleaved (only the two unique extents are packed) — while maintenance
// seals, checkpoints and collects under them.
func TestLaneMultiExtentWriters(t *testing.T) {
	const (
		extent    = 32 << 10
		templates = 16
	)
	a, err := Format(laneTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	template := func(i int) []byte { return pattern(uint64(9000+i%templates), extent) }
	golden := mustCreate(t, a, "golden", templates*extent)
	for i := 0; i < templates; i++ {
		mustWrite(t, a, golden, int64(i)*extent, template(i))
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	before := a.Stats()

	laneWritersUnderMaintenance(t, a, 32, 4*extent, 32, func(w, j int) []byte {
		buf := make([]byte, 0, 4*extent)
		for e := 0; e < 4; e++ {
			if j%2 == 1 || (j%4 == 2 && e%2 == 1) {
				buf = append(buf, template(w+j+e)...)
			} else {
				buf = append(buf, pattern(uint64(w)*100_000+uint64(j)*10+uint64(e)+1, extent)...)
			}
		}
		return buf
	})

	// 8 writers × 32 writes: 16 all-duplicate, 8 unique, 8 interleaved each.
	st := a.Stats()
	if hits, want := st.DedupHits-before.DedupHits, int64(8*(16*4+8*2)); hits != want {
		t.Errorf("dedup hits = %d, want %d: every template extent duplicates sealed data", hits, want)
	}
	// Each extent is packed where it is placed, so an interleaved write packs
	// its two unique extents only (was 8*(8*4+8*4)*extent, when the first
	// miss packed all four).
	if packed, want := st.PackedBytes-before.PackedBytes, int64(8*(8*4+8*2)*extent); packed != want {
		t.Errorf("packed %d bytes, want %d: four extents per unique write, two per interleaved, none per duplicate", packed, want)
	}
}

// TestSlotAppendStates drives slotAppendLocked through its three states —
// empty slot, full segment, oversized item — on a class slot and on a lane
// slot of two identically formatted arrays, and requires the two to behave
// identically: same segment IDs, offsets, completion times and errors.
func TestSlotAppendStates(t *testing.T) {
	type step struct {
		id   layout.SegmentID
		off  int64
		done sim.Time
		err  error
	}
	run := func(pick func(a *Array) *openSeg) []step {
		a := newArray(t)
		lc := a.cfg.Layout
		s := pick(a)
		a.mu.Lock()
		defer a.mu.Unlock()
		var trace []step
		now := sim.Time(0)
		appendItem := func(n int) step {
			id, off, done, err := a.slotAppendLocked(now, s, segItem{b: pattern(uint64(len(trace)+1), n)})
			now = done
			st := step{id, off, done, err}
			trace = append(trace, st)
			return st
		}
		open := func() *layout.Writer {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.w
		}

		// Empty: the append opens a segment and lands at offset 0.
		if open() != nil {
			t.Fatal("fresh slot is not empty")
		}
		first := appendItem(lc.StripeCapacity())
		if first.err != nil || first.off != 0 || open() == nil || open().Info().ID != first.id || a.openByID[first.id].slot != s {
			t.Fatalf("append to empty slot: %+v", first)
		}

		// Full: one whole stripe per append fills the segment; the append
		// after the last stripe seals it once and opens the next.
		for i := 1; i < lc.StripesPerAU; i++ {
			if st := appendItem(lc.StripeCapacity()); st.err != nil || st.id != first.id {
				t.Fatalf("append %d: %+v, want segment %d", i, st, first.id)
			}
		}
		if n := s.rotations.Load(); n != 0 {
			t.Fatalf("rotations = %d before the segment filled", n)
		}
		next := appendItem(lc.StripeCapacity())
		if next.err != nil || next.id == first.id || next.off != 0 {
			t.Fatalf("append to full segment: %+v", next)
		}
		if n := s.rotations.Load(); n != 1 {
			t.Fatalf("rotations = %d after one fill, want 1", n)
		}
		if info := a.segMap[first.id]; !info.Sealed || info.Stripes != lc.StripesPerAU {
			t.Fatalf("filled segment: %+v", info)
		}
		if _, open := a.openByID[first.id]; open || a.openByID[next.id].slot != s || len(a.openByID) != 1 {
			t.Fatalf("open-segment index after rotation: %v", a.openByID)
		}

		// Oversized: the error comes back and nothing is sealed.
		big := appendItem(lc.StripeCapacity() + 1)
		if big.err != layout.ErrItemTooLarge {
			t.Fatalf("oversized item: %+v", big)
		}
		if s.rotations.Load() != 1 || open() == nil || open().Info().ID != next.id || a.segMap[next.id].Sealed {
			t.Fatal("oversized item sealed or replaced the open segment")
		}
		return trace
	}
	class := run(func(a *Array) *openSeg { return &a.slots[classGC] })
	lane := run(func(a *Array) *openSeg { return a.lanes[0].slot })
	if !reflect.DeepEqual(class, lane) {
		t.Fatalf("class slot and lane slot behave differently:\nclass %+v\nlane  %+v", class, lane)
	}
}
