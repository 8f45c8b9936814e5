package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
)

// Reads run under world.RLock and take a.mu only for their closing
// bookkeeping (DESIGN.md, "Read path"). The tests here hold that design to
// its promises: a snapshot of the counters reads nothing through the device
// model; many readers beside a writer, GC and flushes return only bytes
// some write put there and end on the flat model; and a read never falls
// into the window in which a segment is being sealed.

// stampSectors returns n sectors of data written by write `version`, each
// self-describing: its sector number and the version in the first 16
// bytes, then bytes derived from both. A reader can check any sector it
// gets back without knowing which write it raced.
func stampSectors(firstSector, version uint64, n int) []byte {
	out := make([]byte, n*512)
	for i := 0; i < n; i++ {
		sec := out[i*512 : (i+1)*512]
		binary.LittleEndian.PutUint64(sec, firstSector+uint64(i))
		binary.LittleEndian.PutUint64(sec[8:], version)
		sim.NewRand((firstSector+uint64(i))<<24 ^ version).Bytes(sec[16:])
	}
	return out
}

// checkStamped verifies that every sector of b, read at firstSector, is
// either never written (zeros) or exactly what some write of a version ≤
// maxVersion put at that sector.
func checkStamped(b []byte, firstSector, maxVersion uint64) error {
	for i := 0; i < len(b)/512; i++ {
		sec := b[i*512 : (i+1)*512]
		want := firstSector + uint64(i)
		got := binary.LittleEndian.Uint64(sec)
		version := binary.LittleEndian.Uint64(sec[8:])
		if got == 0 && version == 0 && bytes.Equal(sec, make([]byte, 512)) {
			continue
		}
		if got != want || version == 0 || version > maxVersion {
			return fmt.Errorf("sector %d holds sector %d version %d (latest %d)", want, got, version, maxVersion)
		}
		if !bytes.Equal(sec, stampSectors(want, version, 1)) {
			return fmt.Errorf("sector %d version %d: body differs from what that write stored", want, version)
		}
	}
	return nil
}

// statsModelRun drives one seeded script in virtual-time order — volume
// creates, snapshots and clones between FlushAlls, so the volume catalog
// keeps gaining patches whose pages are not yet cached, with writes and
// reads around them — and returns every op's completion time and the
// final engine stats document. With probe set, the document is taken and
// marshalled after every op.
func statsModelRun(t *testing.T, probe bool) ([]sim.Time, string) {
	t.Helper()
	a, err := Format(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	var acks []sim.Time
	step := func(d sim.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = d
		acks = append(acks, d)
		if probe {
			if _, err := json.Marshal(a.Stats()); err != nil {
				t.Fatal(err)
			}
		}
	}
	const volBytes = 1 << 20
	r := sim.NewRand(29)
	var vols []VolumeID
	for round := 0; round < 6; round++ {
		v, d, err := a.CreateVolume(now, fmt.Sprintf("v%d", round), volBytes)
		step(d, err)
		vols = append(vols, v)
		if round%2 == 1 {
			snap, d, err := a.Snapshot(now, v, fmt.Sprintf("v%d@1", round))
			step(d, err)
			clone, d, err := a.Clone(now, snap, fmt.Sprintf("c%d", round))
			step(d, err)
			vols = append(vols, clone)
		}
		for i := 0; i < 80; i++ {
			vol := vols[r.Intn(len(vols))]
			off := int64(r.Intn(volBytes/4096)) * 4096
			if r.Intn(3) == 0 {
				_, d, err := a.ReadAt(now, vol, off, 4096)
				step(d, err)
			} else {
				step(a.WriteAt(now, vol, off, pattern(uint64(round*1000+i), 4096)))
			}
		}
		step(a.FlushAll(now))
	}
	doc, err := json.MarshalIndent(a.Stats(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return acks, string(doc)
}

// TestStatsDoesNotMoveModel: taking and marshalling the engine's stats
// document after every op leaves every completion time and every figure
// of the final document exactly as it is without one. The snapshot once
// summed ProvisionedBytes by scanning the volume catalog, which opened
// catalog pages through the page cache and the drives at time 0 — a later
// lookup then found them cached and finished sooner.
func TestStatsDoesNotMoveModel(t *testing.T) {
	plain, plainDoc := statsModelRun(t, false)
	probed, probedDoc := statsModelRun(t, true)
	if len(plain) != len(probed) {
		t.Fatalf("%d ops without Stats, %d with", len(plain), len(probed))
	}
	for i := range plain {
		if plain[i] != probed[i] {
			t.Fatalf("op %d completes at %d without Stats() probes, at %d with them", i, plain[i], probed[i])
		}
	}
	if plainDoc != probedDoc {
		t.Fatalf("stats document moved under Stats() probes:\n--- without\n%s\n--- with\n%s", plainDoc, probedDoc)
	}
}

// TestExtentReadErrorsCounted: a read whose cblock cannot be read or
// rebuilt fails, and the failure is in the snapshot. The first reads bring
// the metadata pages into their cache, so it is the cblock that fails;
// with a one-entry cblock cache the second read evicts the first cblock.
func TestExtentReadErrorsCounted(t *testing.T) {
	cfg := TestConfig()
	cfg.CBlockCacheEntries = 1
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "x", 2<<20)
	mustWrite(t, a, vol, 0, pattern(7, 64<<10))
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	mustRead(t, a, vol, 0, 4096)
	mustRead(t, a, vol, 32<<10, 4096)
	if n := a.Stats().ExtentReadErrors; n != 0 {
		t.Fatalf("ExtentReadErrors = %d before any failure", n)
	}
	for _, d := range []int{1, 2, 3, 5} { // two left: fewer than the data shards
		if err := a.Shelf().PullDrive(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := a.ReadAt(0, vol, 0, 4096); err == nil || !strings.Contains(err.Error(), "extent read") {
		t.Fatalf("read with four drives pulled: %v, want an extent-read failure", err)
	}
	if n := a.Stats().ExtentReadErrors; n != 1 {
		t.Fatalf("ExtentReadErrors = %d, want 1", n)
	}
}

// TestMetadataReadErrorNamesPage: a read whose metadata page cannot be
// rebuilt fails with the relation and the page it could not read, still
// recognisable as unrecoverable.
func TestMetadataReadErrorNamesPage(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "x", 2<<20)
	mustWrite(t, a, vol, 0, pattern(7, 64<<10))
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, 2, 3, 5} { // two left: fewer than the data shards
		if err := a.Shelf().PullDrive(d); err != nil {
			t.Fatal(err)
		}
	}
	// The read's first lookup is the volume catalog's, in its one page.
	patches := a.pyr[relation.IDVolumes].Patches()
	if len(patches) != 1 || len(patches[0].Pages) != 1 {
		t.Fatalf("volume catalog holds %d patches, want one of one page", len(patches))
	}
	want := fmt.Sprintf("pyramid volumes: page at segment %d ", patches[0].Pages[0].Ref.Segment)
	_, _, err := a.ReadAt(0, vol, 0, 4096)
	if !errors.Is(err, layout.ErrUnrecoverable) || !strings.Contains(err.Error(), want) {
		t.Fatalf("read with four drives pulled: %v, want layout.ErrUnrecoverable behind %q", err, want)
	}
}

// TestStatsMarshalBesideLanes: one goroutine takes and marshals the stats
// document over and over while writers on four lanes and readers run.
// Under -race it checks that every counter the document reads is either
// under the lock Stats takes or atomic; afterwards the reduction account
// and the lane commits add up to what the writers wrote.
func TestStatsMarshalBesideLanes(t *testing.T) {
	const (
		writers = 4
		writes  = 60
		volSize = int64(1 << 20)
	)
	a, err := Format(laneTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if r := a.Stats().ReductionRatio; r != 0 { // not NaN: it must marshal
		t.Fatalf("ReductionRatio = %v before any write, want 0", r)
	}
	vols := make([]VolumeID, writers)
	for i := range vols {
		vols[i] = mustCreate(t, a, fmt.Sprintf("v%d", i), volSize)
	}
	var logical atomic.Int64
	var writersWG, wg sync.WaitGroup
	for i := range vols {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			r := sim.NewRand(uint64(i + 1))
			for j := 0; j < writes; j++ {
				data := pattern(uint64(i*writes+j), (r.Intn(16)+1)*512)
				off := int64(r.Intn(int(volSize)/512-32)) * 512
				if _, err := a.WriteAt(0, vols[i], off, data); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				logical.Add(int64(len(data)))
				if _, _, err := a.ReadAt(0, vols[(i+1)%writers], off, 4096); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := json.Marshal(a.Stats()); err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
		}
	}()
	writersWG.Wait()
	close(done)
	wg.Wait()
	st := a.Stats()
	var commits int64
	for _, l := range st.Lanes {
		commits += l.Commits
	}
	if st.Writes != writers*writes || commits != st.Writes || st.Reads != writers*writes {
		t.Fatalf("writes %d, lane commits %d, reads %d; want %d of each", st.Writes, commits, st.Reads, writers*writes)
	}
	if st.LogicalBytes != logical.Load() || st.PhysicalBytes <= 0 {
		t.Fatalf("reduction account: logical %d (want %d), physical %d", st.LogicalBytes, logical.Load(), st.PhysicalBytes)
	}
}

// TestProvisionedBytesSurvivesRecovery: recovery rebuilds the aggregate
// from the catalog, counting active volumes and clones but not snapshots
// or deleted volumes.
func TestProvisionedBytesSurvivesRecovery(t *testing.T) {
	cfg := TestConfig()
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v1 := mustCreate(t, a, "v1", 4<<20)
	v2 := mustCreate(t, a, "v2", 2<<20)
	snap, _, err := a.Snapshot(0, v1, "v1@1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Clone(0, snap, "c1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint, so recovery finds these in the NVRAM log.
	mustCreate(t, a, "v3", 1<<20)
	if _, err := a.Delete(0, v2); err != nil {
		t.Fatal(err)
	}
	const want = 4<<20 + 4<<20 + 1<<20 // v1, its clone, v3
	if got := a.Stats().ProvisionedBytes; got != want {
		t.Fatalf("ProvisionedBytes = %d, want %d", got, want)
	}
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := a2.Stats().ProvisionedBytes; got != want {
		t.Fatalf("ProvisionedBytes after recovery = %d, want %d", got, want)
	}
}

// TestConcurrentReadersWriterGC is many readers beside one writer, GC,
// flushes and stats probes, under -race. Readers check every byte they
// get: exact against the model on a volume nobody writes, and on the
// volume being written, each sector is zeros or exactly what some write
// up to the latest acknowledged one stored there. Afterwards both volumes
// match their flat models, live and after crash recovery.
func TestConcurrentReadersWriterGC(t *testing.T) {
	const (
		readers  = 4
		reads    = 100
		writes   = 200
		volBytes = int64(1 << 20)
		sectors  = volBytes / 512
	)
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.Capacity = 300 * cfg.Layout.AUSize()
	cfg.CBlockCacheEntries = 8 // most reads go to the segments
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	static := mustCreate(t, a, "static", volBytes)
	staticModel := pattern(77, int(volBytes))
	for off := int64(0); off < volBytes; off += 32 << 10 {
		mustWrite(t, a, static, off, staticModel[off:off+32<<10])
	}
	hot := mustCreate(t, a, "hot", volBytes)
	hotModel := make([]byte, volBytes)
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}

	var acked atomic.Uint64 // highest version whose write returned
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		defer close(stop)
		r := sim.NewRand(41)
		now := sim.Time(0)
		for v := uint64(1); v <= writes; v++ {
			n := r.Intn(16) + 1
			first := uint64(r.Intn(int(sectors) - n))
			data := stampSectors(first, v, n)
			d, err := a.WriteAt(now, hot, int64(first)*512, data)
			if err != nil {
				t.Errorf("write %d: %v", v, err)
				return
			}
			now = d
			copy(hotModel[first*512:], data)
			acked.Store(v)
		}
	}()
	wg.Add(1)
	go func() { // GC and flushes, paced: four at least, then until the writer is done
		defer wg.Done()
		for i := 0; ; i++ {
			if i >= 4 {
				select {
				case <-stop:
					return
				default:
				}
			}
			time.Sleep(time.Millisecond)
			var err error
			if i%2 == 0 {
				_, _, err = a.RunGC(0)
			} else {
				_, err = a.FlushAll(0)
			}
			if err != nil {
				t.Errorf("maintenance %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // stats probes, the other lock-free-side readers of shared state
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			a.Stats()
			a.Segments()
			a.CacheWarmKeys()
		}
	}()
	for i := 0; i < readers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRand(uint64(500 + i))
			for j := 0; j < reads; j++ {
				n := r.Intn(16) + 1
				first := uint64(r.Intn(int(sectors) - n))
				if j%3 == 0 {
					got, _, err := a.ReadAt(0, static, int64(first)*512, n*512)
					if err != nil {
						t.Errorf("reader %d: static read: %v", i, err)
						return
					}
					if !bytes.Equal(got, staticModel[first*512:(first+uint64(n))*512]) {
						t.Errorf("reader %d: static volume sectors [%d,+%d) differ from the model", i, first, n)
						return
					}
					continue
				}
				got, _, err := a.ReadAt(0, hot, int64(first)*512, n*512)
				if err != nil {
					t.Errorf("reader %d: hot read: %v", i, err)
					return
				}
				// Whatever the read saw was applied before it returned: by
				// then at most one write past the last acknowledged one.
				limit := acked.Load() + 1
				if err := checkStamped(got, first, min(limit, writes)); err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	check := func(a *Array, when string) {
		t.Helper()
		if got := mustRead(t, a, static, 0, int(volBytes)); !bytes.Equal(got, staticModel) {
			t.Fatalf("%s: static volume diverged from its model", when)
		}
		if got := mustRead(t, a, hot, 0, int(volBytes)); !bytes.Equal(got, hotModel) {
			t.Fatalf("%s: written volume diverged from its model", when)
		}
	}
	check(a, "live")
	checkCachedPages(t, a)
	a2, _, err := OpenAt(cfg, a.Shelf(), 0, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	check(a2, "after recovery")
	checkCachedPages(t, a2)
}

// checkCachedPages fails t if a cached metadata page no longer matches its
// checksum. Lookups and censuses borrow rows whose blobs alias those pages
// (pyramid.Visit), so this is where a write through a borrowed fact shows.
func checkCachedPages(t *testing.T, a *Array) {
	t.Helper()
	for _, p := range a.pyr {
		if err := p.VerifyCachedPages(); err != nil {
			t.Error(err)
		}
	}
}

// TestReadsAcrossSealWindow reads the cblocks a writer just placed — so
// most sit in the lane's open segment — while that writer fills and seals
// one segment after another. A rotation seals under the lane commit's
// world.RLock, beside these reads; with a one-entry cblock cache nearly
// every read goes to the segment, the pending stripe or the drives, and
// some find the segment mid-seal. Every read must return exactly the
// written bytes.
func TestReadsAcrossSealWindow(t *testing.T) {
	const (
		readers = 4
		writes  = 6000 // ~60 segment rotations at TestConfig's geometry
		recent  = 6
	)
	cfg := TestConfig()
	cfg.Shelf.DriveConfig.Capacity = 300 * cfg.Layout.AUSize()
	cfg.CBlockCacheEntries = 1
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "append", writes*4096)
	block := func(i int) []byte { return stampSectors(uint64(i)*8, uint64(i)+1, 8) }

	var written atomic.Int64 // blocks [0, written) are acknowledged
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := sim.Time(0)
		for i := 0; i < writes; i++ {
			d, err := a.WriteAt(now, vol, int64(i)*4096, block(i))
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				written.Store(writes) // release the readers
				return
			}
			now = d
			written.Store(int64(i + 1))
		}
	}()
	var checked atomic.Int64
	for k := 0; k < readers; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := sim.NewRand(uint64(900 + k))
			for {
				w := written.Load()
				if w == writes || t.Failed() {
					return
				}
				if w == 0 {
					continue
				}
				i := int(w) - 1 - r.Intn(int(min(w, recent)))
				got, _, err := a.ReadAt(0, vol, int64(i)*4096, 4096)
				if err != nil {
					t.Errorf("reader %d: block %d: %v", k, i, err)
					return
				}
				if !bytes.Equal(got, block(i)) {
					t.Errorf("reader %d: block %d differs from what was written", k, i)
					return
				}
				checked.Add(1)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var rotations int64
	for _, ln := range a.LaneTelemetry().Lanes {
		rotations += ln.Rotations
	}
	if rotations < 30 {
		t.Fatalf("only %d segment rotations: the script no longer exercises the seal", rotations)
	}
	t.Logf("%d reads checked across %d rotations", checked.Load(), rotations)
}
