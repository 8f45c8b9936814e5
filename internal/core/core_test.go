package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"purity/internal/cblock"
	"purity/internal/relation"
	"purity/internal/sim"
)

func newArray(t testing.TB) *Array {
	t.Helper()
	a, err := Format(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustCreate(t testing.TB, a *Array, name string, size int64) VolumeID {
	t.Helper()
	id, _, err := a.CreateVolume(0, name, size)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustWrite(t testing.TB, a *Array, vol VolumeID, off int64, data []byte) sim.Time {
	t.Helper()
	done, err := a.WriteAt(0, vol, off, data)
	if err != nil {
		t.Fatalf("WriteAt(%d, %d, %d bytes): %v", vol, off, len(data), err)
	}
	return done
}

func mustRead(t testing.TB, a *Array, vol VolumeID, off int64, n int) []byte {
	t.Helper()
	got, _, err := a.ReadAt(0, vol, off, n)
	if err != nil {
		t.Fatalf("ReadAt(%d, %d, %d): %v", vol, off, n, err)
	}
	return got
}

// pattern produces deterministic, moderately compressible sector data.
func pattern(seed uint64, n int) []byte {
	out := make([]byte, n)
	r := sim.NewRand(seed)
	for i := 0; i < n; i += 16 {
		v := r.Uint64()
		for j := 0; j < 16 && i+j < n; j++ {
			out[i+j] = byte(v >> (j % 8 * 8))
		}
	}
	return out
}

func TestWriteReadRoundTrip(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "vol0", 8<<20)
	data := pattern(1, 100*1024)
	mustWrite(t, a, vol, 4096, data)
	got := mustRead(t, a, vol, 4096, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
	// Unwritten space reads zeros (thin provisioning).
	zeros := mustRead(t, a, vol, 4<<20, 8192)
	for i, b := range zeros {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x", i, b)
		}
	}
	// Partial re-read with different alignment than the write.
	part := mustRead(t, a, vol, 4096+512*7, 512*5)
	if !bytes.Equal(part, data[512*7:512*12]) {
		t.Fatal("misaligned re-read mismatch")
	}
}

func TestWriteValidation(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 1<<20)
	if _, err := a.WriteAt(0, vol, 100, make([]byte, 512)); err != ErrUnaligned {
		t.Fatalf("unaligned offset: %v", err)
	}
	if _, err := a.WriteAt(0, vol, 0, make([]byte, 100)); err != ErrUnaligned {
		t.Fatalf("unaligned length: %v", err)
	}
	if _, err := a.WriteAt(0, vol, 1<<20, make([]byte, 512)); err != ErrOutOfRange {
		t.Fatalf("out of range: %v", err)
	}
	if _, err := a.WriteAt(0, 999, 0, make([]byte, 512)); err != ErrNoSuchVolume {
		t.Fatalf("missing volume: %v", err)
	}
	if _, _, err := a.ReadAt(0, vol, 0, 0); err != ErrUnaligned {
		t.Fatalf("zero read: %v", err)
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 1<<20)
	first := pattern(1, 32<<10)
	second := pattern(2, 32<<10)
	mustWrite(t, a, vol, 0, first)
	mustWrite(t, a, vol, 0, second)
	if !bytes.Equal(mustRead(t, a, vol, 0, 32<<10), second) {
		t.Fatal("overwrite not visible")
	}
	// Partial overwrite in the middle.
	patch := pattern(3, 4096)
	mustWrite(t, a, vol, 8192, patch)
	got := mustRead(t, a, vol, 0, 32<<10)
	want := append([]byte(nil), second...)
	copy(want[8192:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("partial overwrite mismatch")
	}
}

func TestManySmallWrites(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 4<<20)
	r := sim.NewRand(7)
	model := make([]byte, 1<<20)
	for i := 0; i < 300; i++ {
		off := int64(r.Intn(2000)) * 512
		n := (r.Intn(16) + 1) * 512
		if off+int64(n) > int64(len(model)) {
			continue
		}
		data := pattern(uint64(i)+100, n)
		copy(model[off:], data)
		mustWrite(t, a, vol, off, data)
	}
	got := mustRead(t, a, vol, 0, len(model))
	if !bytes.Equal(got, model) {
		for i := range model {
			if got[i] != model[i] {
				t.Fatalf("first mismatch at byte %d (sector %d)", i, i/512)
			}
		}
	}
}

func TestSnapshotIsolation(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "db", 2<<20)
	base := pattern(10, 64<<10)
	mustWrite(t, a, vol, 0, base)

	snap, _, err := a.Snapshot(0, vol, "db-snap")
	if err != nil {
		t.Fatal(err)
	}
	// Writing the volume after the snapshot must not change the snapshot.
	update := pattern(11, 64<<10)
	mustWrite(t, a, vol, 0, update)
	if !bytes.Equal(mustRead(t, a, vol, 0, 64<<10), update) {
		t.Fatal("volume does not see its own write")
	}
	if !bytes.Equal(mustRead(t, a, snap, 0, 64<<10), base) {
		t.Fatal("snapshot changed under writes")
	}
	// Snapshots reject writes.
	if _, err := a.WriteAt(0, snap, 0, make([]byte, 512)); err == nil {
		t.Fatal("write to snapshot accepted")
	}
	// Snapshotting a snapshot is rejected; cloning works.
	if _, _, err := a.Snapshot(0, snap, "nope"); err == nil {
		t.Fatal("snapshot of snapshot accepted")
	}
}

func TestCloneDiverges(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "gold", 2<<20)
	base := pattern(20, 128<<10)
	mustWrite(t, a, vol, 0, base)
	snap, _, err := a.Snapshot(0, vol, "gold-snap")
	if err != nil {
		t.Fatal(err)
	}
	c1, _, err := a.Clone(0, snap, "clone1")
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := a.Clone(0, snap, "clone2")
	if err != nil {
		t.Fatal(err)
	}
	// Clones start identical to the snapshot.
	if !bytes.Equal(mustRead(t, a, c1, 0, 128<<10), base) {
		t.Fatal("clone1 differs from base")
	}
	// Divergence is private.
	delta := pattern(21, 32<<10)
	mustWrite(t, a, c1, 0, delta)
	if !bytes.Equal(mustRead(t, a, c1, 0, 32<<10), delta) {
		t.Fatal("clone1 missing its write")
	}
	if !bytes.Equal(mustRead(t, a, c2, 0, 32<<10), base[:32<<10]) {
		t.Fatal("clone2 affected by clone1's write")
	}
	if !bytes.Equal(mustRead(t, a, snap, 0, 32<<10), base[:32<<10]) {
		t.Fatal("snapshot affected by clone write")
	}
}

func TestDedupIdenticalVolumes(t *testing.T) {
	a := newArray(t)
	v1 := mustCreate(t, a, "vm1", 4<<20)
	v2 := mustCreate(t, a, "vm2", 4<<20)
	img := pattern(30, 512<<10)
	// Write in 32 KiB chunks so cblocks align; checkpoint after v1 so its
	// data is flush-durable and eligible as dedup candidates.
	for off := 0; off < len(img); off += 32 << 10 {
		mustWrite(t, a, v1, int64(off), img[off:off+32<<10])
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(img); off += 32 << 10 {
		mustWrite(t, a, v2, int64(off), img[off:off+32<<10])
	}
	st := a.Stats()
	if st.DedupHits == 0 {
		t.Fatalf("no dedup hits: %+v", st)
	}
	if st.DedupBytes == 0 {
		t.Fatal("no deduped bytes accounted")
	}
	// Both volumes still read correctly.
	if !bytes.Equal(mustRead(t, a, v1, 0, len(img)), img) {
		t.Fatal("v1 corrupted")
	}
	if !bytes.Equal(mustRead(t, a, v2, 0, len(img)), img) {
		t.Fatal("v2 corrupted")
	}
	// Reduction ratio should approach 2x (identical data stored once).
	if st.ReductionRatio < 1.5 {
		t.Fatalf("reduction ratio = %.2f, want ≥ 1.5", st.ReductionRatio)
	}
}

func TestCompressionReduces(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "db", 4<<20)
	// Highly compressible database-ish pages.
	page := bytes.Repeat([]byte("ACCOUNT|ACTIVE|2026-07-05|0000042|"), 1000)[:32<<10]
	for i := 0; i < 16; i++ {
		buf := append([]byte(nil), page...)
		buf[0] = byte(i) // distinct blocks: no dedup, pure compression
		mustWrite(t, a, vol, int64(i)*(32<<10), buf)
	}
	st := a.Stats()
	if st.ReductionRatio < 3 {
		t.Fatalf("compression ratio = %.2f, want ≥ 3", st.ReductionRatio)
	}
}

func TestWriteLatencyIsNVRAMBound(t *testing.T) {
	// The commit path acknowledges at NVRAM persistence, not segment flush
	// (Figure 4): a 4 KiB write should ack in well under a millisecond of
	// simulated time even though flash programs take ~1.3 ms.
	a := newArray(t)
	vol := mustCreate(t, a, "v", 1<<20)
	done, err := a.WriteAt(sim.Second, vol, 0, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	lat := done - sim.Second
	if lat > 500*sim.Microsecond {
		t.Fatalf("write latency %v, want NVRAM-bound (< 500µs)", lat)
	}
}

func TestCrashRecoveryNoFlush(t *testing.T) {
	// Hard crash right after writes: nothing flushed, everything in NVRAM.
	a := newArray(t)
	vol := mustCreate(t, a, "crashy", 2<<20)
	data := pattern(40, 200<<10)
	mustWrite(t, a, vol, 0, data)
	sh := a.Shelf()

	a2, rs, err := OpenAt(TestConfig(), sh, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NVRAMRecords == 0 {
		t.Fatal("recovery replayed nothing")
	}
	got, _, err := a2.ReadAt(0, vol, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across crash")
	}
	// The recovered array accepts new writes.
	more := pattern(41, 32<<10)
	if _, err := a2.WriteAt(0, vol, 512<<10, more); err != nil {
		t.Fatal(err)
	}
	got, _, err = a2.ReadAt(0, vol, 512<<10, len(more))
	if err != nil || !bytes.Equal(got, more) {
		t.Fatalf("post-recovery write broken: %v", err)
	}
}

func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 2<<20)
	before := pattern(50, 100<<10)
	mustWrite(t, a, vol, 0, before)
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	// More writes after the checkpoint, then crash.
	after := pattern(51, 100<<10)
	mustWrite(t, a, vol, 1<<20, after)

	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := a2.ReadAt(0, vol, 0, len(before))
	if err != nil || !bytes.Equal(got, before) {
		t.Fatal("pre-checkpoint data lost")
	}
	got, _, err = a2.ReadAt(0, vol, 1<<20, len(after))
	if err != nil || !bytes.Equal(got, after) {
		t.Fatal("post-checkpoint data lost")
	}
	// Volume identity survived too.
	info, _, err := a2.Lookup(0, vol)
	if err != nil || info.Name != "v" {
		t.Fatalf("volume catalog broken: %+v, %v", info, err)
	}
}

func TestRecoverySnapshotsSurvive(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 2<<20)
	base := pattern(60, 64<<10)
	mustWrite(t, a, vol, 0, base)
	snap, _, err := a.Snapshot(0, vol, "s")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, a, vol, 0, pattern(61, 64<<10))

	a2, _, err := OpenAt(TestConfig(), a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := a2.ReadAt(0, snap, 0, len(base))
	if err != nil || !bytes.Equal(got, base) {
		t.Fatal("snapshot lost across crash")
	}
}

func TestFrontierBoundsRecoveryScan(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 4<<20)
	for i := 0; i < 40; i++ {
		mustWrite(t, a, vol, int64(i)*(32<<10), pattern(uint64(i), 32<<10))
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	sh := a.Shelf()

	_, frontierStats, err := OpenAt(TestConfig(), sh, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	_, fullStats, err := OpenAt(TestConfig(), sh, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if frontierStats.AUsScanned >= fullStats.AUsScanned {
		t.Fatalf("frontier scan (%d AUs) not smaller than full scan (%d AUs)",
			frontierStats.AUsScanned, fullStats.AUsScanned)
	}
	if frontierStats.ScanTime >= fullStats.ScanTime {
		t.Fatalf("frontier scan (%v) not faster than full scan (%v)",
			frontierStats.ScanTime, fullStats.ScanTime)
	}
}

func TestDeleteAndElide(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "victim", 2<<20)
	mustWrite(t, a, vol, 0, pattern(70, 256<<10))
	if _, err := a.Delete(0, vol); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.ReadAt(0, vol, 0, 4096); err != ErrVolumeDeleted {
		t.Fatalf("read of deleted volume: %v", err)
	}
	// One volume deletion costs O(1) elide ranges, not O(blocks).
	if n := a.ElideTableSize(relation.IDAddrs); n > 2 {
		t.Fatalf("elide table has %d ranges after one deletion", n)
	}
}

func TestGCReclaimsAfterDelete(t *testing.T) {
	a := newArray(t)
	keep := mustCreate(t, a, "keep", 2<<20)
	kept := pattern(81, 64<<10)
	mustWrite(t, a, keep, 0, kept)

	vol := mustCreate(t, a, "temp", 2<<20)
	for i := 0; i < 32; i++ {
		mustWrite(t, a, vol, int64(i)*(32<<10), pattern(uint64(i)+200, 32<<10))
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	segsBefore := a.Stats().Segments
	freeBefore := a.Stats().FreeAUs
	if _, err := a.Delete(0, vol); err != nil {
		t.Fatal(err)
	}
	rep, _, err := a.RunGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsReclaimed == 0 {
		t.Fatalf("GC reclaimed nothing: %+v (segments before %d)", rep, segsBefore)
	}
	if a.Stats().FreeAUs <= freeBefore {
		t.Fatalf("no AUs freed: %d -> %d", freeBefore, a.Stats().FreeAUs)
	}
	// Remaining volume unharmed.
	if !bytes.Equal(mustRead(t, a, keep, 0, len(kept)), kept) {
		t.Fatal("GC corrupted surviving volume")
	}
}

func TestGCFlattensDeepChains(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 1<<20)
	mustWrite(t, a, vol, 0, pattern(90, 64<<10))
	// Stack snapshots to deepen the chain.
	for i := 0; i < 5; i++ {
		if _, _, err := a.Snapshot(0, vol, fmt.Sprintf("s%d", i)); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, a, vol, int64(i)*4096, pattern(uint64(91+i), 4096))
	}
	depth, _, err := a.ResolveDepth(0, vol, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if depth <= 2 {
		t.Skipf("chain only %d deep; flattening not triggered", depth)
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	before := mustRead(t, a, vol, 0, 64<<10)
	rep, _, err := a.RunGC(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MediumsFlattened == 0 {
		t.Fatalf("nothing flattened: %+v", rep)
	}
	depth, _, err = a.ResolveDepth(0, vol, 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if depth > 2 {
		t.Fatalf("depth %d after flattening, want ≤ 2", depth)
	}
	if !bytes.Equal(mustRead(t, a, vol, 0, 64<<10), before) {
		t.Fatal("flattening changed data")
	}
}

func TestSurvivesTwoDrivePulls(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "ha", 2<<20)
	data := pattern(100, 256<<10)
	mustWrite(t, a, vol, 0, data)
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	// Pull two drives, as the paper encourages evaluators to do.
	a.Shelf().PullDrive(1)
	a.Shelf().PullDrive(3)
	if !bytes.Equal(mustRead(t, a, vol, 0, len(data)), data) {
		t.Fatal("read failed with two drives pulled")
	}
	// Writes continue too (segments allocate around failed drives)...
	// with 6 drives and 2 pulled, 4 healthy < 5 shards: allocation of NEW
	// segments fails, but appends to existing open segments tolerate it.
	more := pattern(101, 4096)
	if _, err := a.WriteAt(0, vol, 1<<20, more); err != nil {
		t.Logf("write during double failure: %v (acceptable on tiny test array)", err)
	} else if !bytes.Equal(mustRead(t, a, vol, 1<<20, len(more)), more) {
		t.Fatal("write during double failure corrupted")
	}
	// Third pull exceeds parity: reads of striped data may fail.
	a.Shelf().PullDrive(5)
	if _, _, err := a.ReadAt(0, vol, 0, len(data)); err == nil {
		t.Log("triple-failure read survived (data may be cached)")
	}
	// Reinsert: service restored.
	a.Shelf().ReinsertDrive(1)
	a.Shelf().ReinsertDrive(3)
	a.Shelf().ReinsertDrive(5)
	if !bytes.Equal(mustRead(t, a, vol, 0, len(data)), data) {
		t.Fatal("read failed after reinsert")
	}
}

func TestScrubDetectsAndRepairs(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "s", 2<<20)
	data := pattern(110, 128<<10)
	mustWrite(t, a, vol, 0, data)
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	rep, _, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsScanned == 0 || rep.BadWriteUnits != 0 {
		t.Fatalf("clean scrub = %+v", rep)
	}
	// Corrupt one AU of a sealed segment.
	a.mu.Lock()
	var victim uint64
	for id, info := range a.segMap {
		if info.Sealed && info.Stripes > 0 {
			au := info.AUs[0]
			a.shelf.Drive(au.Drive).CorruptBlock(au.Offset(a.cfg.Layout))
			victim = uint64(id)
			break
		}
	}
	a.mu.Unlock()
	if victim == 0 {
		t.Skip("no sealed live segment to corrupt")
	}
	rep, _, err = a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadWriteUnits == 0 {
		t.Fatalf("scrub missed corruption: %+v", rep)
	}
	if rep.SegmentsRepaired == 0 {
		t.Fatalf("scrub did not repair: %+v", rep)
	}
	if !bytes.Equal(mustRead(t, a, vol, 0, len(data)), data) {
		t.Fatal("data wrong after scrub repair")
	}
}

func TestVolumesListing(t *testing.T) {
	a := newArray(t)
	v1 := mustCreate(t, a, "alpha", 1<<20)
	mustCreate(t, a, "beta", 1<<20)
	if _, _, err := a.Snapshot(0, v1, "alpha-snap"); err != nil {
		t.Fatal(err)
	}
	vols, _, err := a.Volumes(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vols) != 3 {
		t.Fatalf("listed %d volumes, want 3", len(vols))
	}
	names := map[string]bool{}
	for _, v := range vols {
		names[v.Name] = true
	}
	if !names["alpha"] || !names["beta"] || !names["alpha-snap"] {
		t.Fatalf("names = %v", names)
	}
}

// TestVolumeNamesAreUnique: a name a live volume or snapshot holds is
// refused to create, snapshot and clone alike, before any ID is consumed
// and without touching the catalog; deleting the holder frees the name.
func TestVolumeNamesAreUnique(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "vol", 1<<20)
	snap, _, err := a.Snapshot(0, vol, "snap")
	if err != nil {
		t.Fatal(err)
	}
	before, _, err := a.Volumes(0)
	if err != nil {
		t.Fatal(err)
	}
	nextVolume, nextMedium := a.nextVolume, a.nextMedium
	for what, try := range map[string]func(name string) error{
		"create":   func(name string) error { _, _, err := a.CreateVolume(0, name, 1<<20); return err },
		"snapshot": func(name string) error { _, _, err := a.Snapshot(0, vol, name); return err },
		"clone":    func(name string) error { _, _, err := a.Clone(0, snap, name); return err },
	} {
		for _, name := range []string{"vol", "snap"} {
			if err := try(name); !errors.Is(err, ErrVolumeExists) {
				t.Fatalf("%s %q: %v, want ErrVolumeExists", what, name, err)
			}
		}
	}
	if a.nextVolume != nextVolume || a.nextMedium != nextMedium {
		t.Fatalf("refused calls consumed IDs: nextVolume %d→%d, nextMedium %d→%d", nextVolume, a.nextVolume, nextMedium, a.nextMedium)
	}
	after, _, err := a.Volumes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("refused calls changed the catalog:\n%+v\n%+v", before, after)
	}

	// A deleted holder's name is free again, for any of the three.
	if _, err := a.Delete(0, snap); err != nil {
		t.Fatal(err)
	}
	snap2, _, err := a.Snapshot(0, vol, "snap")
	if err != nil {
		t.Fatalf("reusing a deleted snapshot's name: %v", err)
	}
	if _, err := a.Delete(0, vol); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Clone(0, snap2, "vol"); err != nil {
		t.Fatalf("reusing a deleted volume's name: %v", err)
	}
}

func TestBackgroundMaintenanceUnderLoad(t *testing.T) {
	// Push enough writes through to force pyramid flushes, merges and
	// checkpoints, then verify integrity.
	cfg := TestConfig()
	cfg.BackgroundEvery = 16
	cfg.MemtableFlushRows = 64
	cfg.CheckpointEvery = 2
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "busy", 4<<20)
	model := make([]byte, 2<<20)
	r := sim.NewRand(5)
	for i := 0; i < 400; i++ {
		off := int64(r.Intn(4000)) * 512
		n := (r.Intn(32) + 1) * 512
		if off+int64(n) > int64(len(model)) {
			continue
		}
		data := pattern(uint64(i)+1000, n)
		copy(model[off:], data)
		mustWrite(t, a, vol, off, data)
	}
	st := a.Stats()
	if st.Checkpoints == 0 {
		t.Fatalf("no checkpoints ran: %+v", st)
	}
	got := mustRead(t, a, vol, 0, len(model))
	if !bytes.Equal(got, model) {
		t.Fatal("model mismatch after background churn")
	}
	// And across a crash.
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = a2.ReadAt(0, vol, 0, len(model))
	if err != nil || !bytes.Equal(got, model) {
		t.Fatal("model mismatch after crash recovery")
	}
}

func TestSectorSizedIO(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "tiny", 1<<20)
	one := pattern(7, cblock.SectorSize)
	mustWrite(t, a, vol, 512*9, one)
	if !bytes.Equal(mustRead(t, a, vol, 512*9, cblock.SectorSize), one) {
		t.Fatal("single sector round trip failed")
	}
}
