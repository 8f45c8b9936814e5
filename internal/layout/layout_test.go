package layout

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"purity/internal/erasure"
	"purity/internal/sim"
	"purity/internal/ssd"
	"purity/internal/tuple"
)

// newTestRig builds drives sized for the test geometry plus a coder.
func newTestRig(t testing.TB, nDrives, ausPerDrive int) (Config, []*ssd.Device, *erasure.Coder) {
	t.Helper()
	cfg := TestConfig()
	drives, coder := newRigFor(t, cfg, int(cfg.AUSize()), nDrives, ausPerDrive)
	return cfg, drives, coder
}

// newRigFor builds drives with the given erase block size, sized for cfg,
// plus a coder.
func newRigFor(t testing.TB, cfg Config, eraseBlock, nDrives, ausPerDrive int) ([]*ssd.Device, *erasure.Coder) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	dcfg := ssd.DefaultConfig()
	dcfg.EraseBlockSize = eraseBlock
	dcfg.Capacity = int64(ausPerDrive+cfg.BootAUs) * cfg.AUSize()
	drives := make([]*ssd.Device, nDrives)
	for i := range drives {
		var err error
		drives[i], err = ssd.New("d", dcfg)
		if err != nil {
			t.Fatal(err)
		}
	}
	coder, err := erasure.New(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		t.Fatal(err)
	}
	return drives, coder
}

func segmentAUs(cfg Config, nDrives int, auIndex int64) []AU {
	aus := make([]AU, cfg.TotalShards())
	for i := range aus {
		aus[i] = AU{Drive: i % nDrives, Index: auIndex}
	}
	return aus
}

func TestConfigGeometry(t *testing.T) {
	cfg := TestConfig()
	// AU = stripes*WU + trailer page.
	if cfg.AUSize() != 4*32<<10+4<<10 {
		t.Fatalf("AUSize = %d", cfg.AUSize())
	}
	if cfg.StripeDataBytes() != 3*32<<10 {
		t.Fatalf("StripeDataBytes = %d", cfg.StripeDataBytes())
	}
	if cfg.StripeCapacity() != 3*32<<10-segioTrailerSize {
		t.Fatalf("StripeCapacity = %d", cfg.StripeCapacity())
	}
	if cfg.SegmentLogicalSize() != 4*3*32<<10 {
		t.Fatalf("SegmentLogicalSize = %d", cfg.SegmentLogicalSize())
	}
	def := DefaultConfig()
	if def.AUSize()%4096 != 0 {
		t.Fatalf("default AUSize %d not page aligned", def.AUSize())
	}
}

// stripeSlots reads stripe s's row of the table a Reader or Writer indexes:
// the slot of each data shard and, from the slot → coder index column, the
// slot of each parity shard.
func stripeSlots(c Config, s int) (dataSlot, paritySlot []int) {
	row := newSlotTable(c).at(s)
	paritySlot = make([]int, c.ParityShards)
	for slot, idx := range row.coder {
		if idx >= c.DataShards {
			paritySlot[idx-c.DataShards] = slot
		}
	}
	return row.data, paritySlot
}

func TestStripeSlotsRotation(t *testing.T) {
	cfg := TestConfig()
	n := cfg.TotalShards()
	seen := map[int]bool{}
	for s := 0; s < 2*n; s++ {
		data, parity := stripeSlots(cfg, s)
		if len(data) != cfg.DataShards || len(parity) != cfg.ParityShards {
			t.Fatalf("stripe %d: %d data, %d parity", s, len(data), len(parity))
		}
		all := map[int]bool{}
		for _, sl := range append(append([]int{}, data...), parity...) {
			if all[sl] {
				t.Fatalf("stripe %d: slot %d appears twice", s, sl)
			}
			all[sl] = true
		}
		if len(all) != n {
			t.Fatalf("stripe %d: slots not a permutation", s)
		}
		// The two columns of the row agree, and parity shard j sits j slots
		// on from the stripe's first parity slot.
		coder := newSlotTable(cfg).at(s).coder
		for d, sl := range data {
			if coder[sl] != d {
				t.Fatalf("stripe %d: slot %d holds data shard %d, coder index says %d", s, sl, d, coder[sl])
			}
		}
		for j, sl := range parity {
			if sl != (s+j)%n {
				t.Fatalf("stripe %d: parity shard %d in slot %d, want %d", s, j, sl, (s+j)%n)
			}
		}
		seen[parity[0]] = true
	}
	// Parity rotates: over 2n stripes every slot hosts parity at least once.
	if len(seen) != n {
		t.Fatalf("parity visited %d slots, want %d", len(seen), n)
	}
}

func TestSegioTrailerRoundTrip(t *testing.T) {
	stripe := make([]byte, 1024)
	for i := range stripe {
		stripe[i] = byte(i)
	}
	in := segioTrailer{DataLen: 100, LogStart: 800, RecCount: 3, SeqMin: 5, SeqMax: 99}
	putSegioTrailer(stripe, in)
	out, err := parseSegioTrailer(stripe)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	stripe[50] ^= 0xff
	if _, err := parseSegioTrailer(stripe); err == nil {
		t.Fatal("corrupt stripe accepted")
	}
}

func TestAUTrailerRoundTrip(t *testing.T) {
	cfg := TestConfig()
	in := AUTrailer{
		Segment: 42,
		Shard:   3,
		Stripes: 4,
		SeqMin:  10,
		SeqMax:  500,
		AUs:     []AU{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {4, 7}},
		WUCRCs:  [][]uint32{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}, {11, 12, 13, 14, 15}, {16, 17, 18, 19, 20}},
	}
	page, err := marshalAUTrailer(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != cfg.PageSize {
		t.Fatalf("trailer page %d bytes", len(page))
	}
	out, err := parseAUTrailer(cfg, page)
	if err != nil {
		t.Fatal(err)
	}
	if out.Segment != in.Segment || out.Shard != in.Shard || out.Stripes != in.Stripes {
		t.Fatalf("got %+v", out)
	}
	for i := range in.AUs {
		if out.AUs[i] != in.AUs[i] {
			t.Fatalf("AU %d mismatch", i)
		}
	}
	for s := range in.WUCRCs {
		for i := range in.WUCRCs[s] {
			if out.WUCRCs[s][i] != in.WUCRCs[s][i] {
				t.Fatalf("CRC [%d][%d] mismatch", s, i)
			}
		}
	}
	info := out.Info()
	if info.ID != 42 || !info.Sealed || info.SeqMax != 500 {
		t.Fatalf("Info() = %+v", info)
	}
	// A blank page is ErrNoTrailer, not a generic failure.
	if _, err := parseAUTrailer(cfg, make([]byte, cfg.PageSize)); err != ErrNoTrailer {
		t.Fatalf("blank page: %v", err)
	}
	page[100] ^= 0xff
	if _, err := parseAUTrailer(cfg, page); err != ErrNoTrailer {
		t.Fatalf("corrupt page: %v", err)
	}
}

func writeItems(t testing.TB, w *Writer, items [][]byte) []int64 {
	t.Helper()
	offs := make([]int64, len(items))
	now := sim.Time(0)
	for i, item := range items {
		off, done, err := w.AppendData(now, item)
		if err != nil {
			t.Fatalf("AppendData %d: %v", i, err)
		}
		offs[i] = off
		now = done
	}
	return offs
}

func TestWriterReaderRoundTrip(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 8)
	w, err := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRand(1)
	var items [][]byte
	for i := 0; i < 12; i++ {
		item := make([]byte, 1000+r.Intn(20000))
		r.Bytes(item)
		items = append(items, item)
	}
	offs := writeItems(t, w, items)

	// Log records interleaved.
	if _, err := w.AppendLog(0, []byte("log-record-1"), 100, 110); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendLog(0, []byte("log-record-2"), 111, 120); err != nil {
		t.Fatal(err)
	}

	info, _, err := w.Seal(sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sealed || info.SeqMin != 100 || info.SeqMax != 120 {
		t.Fatalf("sealed info = %+v", info)
	}

	reader := NewReader(cfg, drives, coder)
	for i, item := range items {
		got, _, stats, err := reader.ReadRange(sim.Second, info, offs[i], len(item), ReadHome, nil)
		if err != nil {
			t.Fatalf("read item %d: %v", i, err)
		}
		if !bytes.Equal(got, item) {
			t.Fatalf("item %d mismatch", i)
		}
		if stats.ReconstructedReads != 0 {
			t.Fatalf("item %d needed reconstruction on healthy drives", i)
		}
	}
}

// TestReadRangeRejectsBadBounds pins ReadRange's bounds check against the
// values a damaged descriptor can carry: a negative length, and an offset
// so large that offset plus length wraps.
func TestReadRangeRejectsBadBounds(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 8)
	w, err := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	writeItems(t, w, [][]byte{make([]byte, 4096)})
	info, _, err := w.Seal(sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)
	for _, c := range []struct {
		off int64
		n   int
	}{
		{0, -1},
		{4096, -4096},
		{1 << 62, 1 << 62},
		{math.MaxInt64, 1},
		{-1, 1},
	} {
		if _, _, _, err := reader.ReadRange(sim.Second, info, c.off, c.n, ReadHome, nil); err == nil {
			t.Errorf("ReadRange(off %d, n %d) succeeded", c.off, c.n)
		}
	}
	if _, _, _, err := reader.ReadRange(sim.Second, info, 0, 4096, ReadHome, nil); err != nil {
		t.Fatalf("in-range read: %v", err)
	}
}

func TestWriterPendingRead(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	item := []byte("unflushed data living in the segio buffer")
	off, _, err := w.AppendData(0, item)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := w.ReadPending(off, len(item))
	if !ok || !bytes.Equal(got, item) {
		t.Fatalf("ReadPending = %q, %v", got, ok)
	}
	// Out of range: not pending.
	if _, ok := w.ReadPending(off+int64(len(item)), 10); ok {
		t.Fatal("read past pending data succeeded")
	}
}

func TestWriterSegmentFull(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	item := make([]byte, 30<<10)
	n := 0
	for {
		_, _, err := w.AppendData(0, item)
		if err == ErrSegmentFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n > 100 {
			t.Fatal("segment never filled")
		}
	}
	// 3 items of 30 KiB per 96 KiB stripe, 4 stripes.
	if n < 8 || n > 12 {
		t.Fatalf("segment held %d 30 KiB items", n)
	}
	// Oversized item rejected outright.
	if _, _, err := w.AppendData(0, make([]byte, cfg.StripeCapacity()+1)); err != ErrItemTooLarge && err != ErrSegmentFull {
		t.Fatalf("oversized append: %v", err)
	}
}

func TestReadDegradedOneAndTwoFailures(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	r := sim.NewRand(2)
	items := make([][]byte, 8)
	for i := range items {
		items[i] = make([]byte, 8000)
		r.Bytes(items[i])
	}
	offs := writeItems(t, w, items)
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)

	drives[0].Fail()
	drives[3].Fail()
	var recon int64
	for i := range items {
		got, _, stats, err := reader.ReadRange(sim.Second, info, offs[i], len(items[i]), ReadHome, nil)
		if err != nil {
			t.Fatalf("degraded read %d: %v", i, err)
		}
		if !bytes.Equal(got, items[i]) {
			t.Fatalf("degraded read %d mismatch", i)
		}
		recon += stats.ReconstructedReads
	}
	if recon == 0 {
		t.Fatal("no reads were reconstructed despite two failed drives")
	}

	// A third failure exceeds parity.
	drives[1].Fail()
	anyFail := false
	for i := range items {
		if _, _, _, err := reader.ReadRange(sim.Second, info, offs[i], len(items[i]), ReadHome, nil); err != nil {
			anyFail = true
		}
	}
	if !anyFail {
		t.Fatal("reads survived three drive failures with 2 parity shards")
	}
}

func TestReadAvoidsBusyDrives(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	item := make([]byte, 8000)
	sim.NewRand(3).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	flushDone, err := w.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	info := w.Info()
	reader := NewReader(cfg, drives, coder)

	// The item lives in data shard 0 of stripe 0; find a moment when that
	// shard's drive is mid-program (the staggered flush schedule runs the
	// waves one after another).
	dataSlot, _ := stripeSlots(cfg, 0)
	target := drives[info.AUs[dataSlot[0]].Drive]
	var mid sim.Time = -1
	for t := sim.Time(0); t < flushDone; t += 100 * sim.Microsecond {
		if target.BusyAt(t) {
			mid = t
			break
		}
	}
	if mid < 0 {
		t.Fatal("target drive never busy during flush")
	}
	// The flush programs two drives at a time, so one peer is programming
	// too; with four peers for three donors it can be left out.
	var readBefore []int64
	for _, d := range drives {
		readBefore = append(readBefore, d.Stats().HostBytesRead)
	}
	got, _, stats, err := reader.ReadRange(mid, info, offs[0], len(item), ReadAvoidBusy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("busy-avoiding read returned wrong data")
	}
	if stats.BusyAvoided != 1 || stats.ReconstructedReads != 1 || stats.DirectShardReads != 0 {
		t.Fatalf("read inside a program on its home drive: %+v, want 1 avoided, 1 reconstructed, 0 direct", stats)
	}
	for i, d := range drives {
		if d.BusyAt(mid) && d.Stats().HostBytesRead != readBefore[i] {
			t.Errorf("drive %d is programming and was read as a donor", i)
		}
	}
}

// sealedItem writes one item into a fresh segment on a 6-drive rig, seals
// it and returns a reader that has the segment's trailer CRCs cached, the
// home drive of the item's shard and a time by which every drive is idle.
func sealedItem(t *testing.T) (cfg Config, drives []*ssd.Device, reader *Reader, info SegmentInfo, off int64, item []byte, home int, idle sim.Time) {
	t.Helper()
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	item = make([]byte, 8000)
	sim.NewRand(3).Bytes(item)
	offs := writeItems(t, w, [][]byte{item})
	info, sealed, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader = NewReader(cfg, drives, coder)
	_, warmed, _, err := reader.ReadRange(sealed, info, offs[0], len(item), ReadHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	dataSlot, _ := stripeSlots(cfg, 0)
	return cfg, drives, reader, info, offs[0], item, info.AUs[dataSlot[0]].Drive, warmed + sim.Second
}

// programAllDies starts a program at `at` that occupies every die of the
// drive, in AUs the test segment does not use.
func programAllDies(t *testing.T, cfg Config, d *ssd.Device, at sim.Time) {
	t.Helper()
	dc := d.Config()
	if _, err := d.WriteAt(at, make([]byte, dc.Dies*dc.DieStripe), AU{Index: 2}.Offset(cfg)); err != nil {
		t.Fatal(err)
	}
}

// programPeers starts a program at `at` on every die of n of the segment's
// drives other than home.
func programPeers(t *testing.T, cfg Config, drives []*ssd.Device, info SegmentInfo, home, n int, at sim.Time) {
	t.Helper()
	for _, au := range info.AUs {
		if au.Drive != home && n > 0 {
			programAllDies(t, cfg, drives[au.Drive], at)
			n--
		}
	}
}

func TestReadBehindReadGoesHome(t *testing.T) {
	// Two reads of one write unit at the same instant: the second finds the
	// home drive serving the first. That is a queue, not §4.4's "writing or
	// erasing" — it must not cost K reads of other drives.
	_, drives, reader, info, off, item, home, at := sealedItem(t)
	var total ReadStats
	var done [2]sim.Time
	for i := range done {
		got, d, st, err := reader.ReadRange(at, info, off, len(item), ReadAvoidBusy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, item) {
			t.Fatal("wrong data")
		}
		total.Add(st)
		done[i] = d
	}
	if total.DirectShardReads != 2 || total.ReconstructedReads != 0 || total.BusyAvoided != 0 {
		t.Fatalf("two reads of one unit at the same time: %+v, want 2 direct, 0 reconstructed", total)
	}
	if done[1] <= done[0] {
		t.Fatalf("second read done at %d, first at %d: it did not wait its turn", done[1], done[0])
	}
	if st := drives[home].Stats(); st.StalledReads != 0 || st.QueuedReads != 1 {
		t.Fatalf("home drive: %d stalled, %d queued, want 0, 1", st.StalledReads, st.QueuedReads)
	}
}

func TestBusyAvoidanceSealedPrefersIdleDonors(t *testing.T) {
	// The verified path: the home drive and one peer are programming, which
	// leaves exactly K idle donors. The read reconstructs from those three
	// and reads neither programming drive.
	cfg, drives, reader, info, off, item, home, at := sealedItem(t)
	peer := (home + 1) % len(info.AUs)
	programAllDies(t, cfg, drives[home], at)
	programAllDies(t, cfg, drives[peer], at)
	homeRead, peerRead := drives[home].Stats().HostBytesRead, drives[peer].Stats().HostBytesRead
	got, _, st, err := reader.ReadRange(at+sim.Microsecond, info, off, len(item), ReadAvoidBusy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("wrong data")
	}
	if st.BusyAvoided != 1 || st.ReconstructedReads != 1 || st.DirectShardReads != 0 {
		t.Fatalf("read inside a program on its home drive: %+v, want 1 avoided, 1 reconstructed, 0 direct", st)
	}
	if drives[home].Stats().HostBytesRead != homeRead || drives[peer].Stats().HostBytesRead != peerRead {
		t.Fatal("a programming drive was read")
	}
	for i, d := range drives {
		if s := d.Stats(); s.StalledReads != 0 {
			t.Errorf("drive %d: %d reads stalled behind a program the reader could see", i, s.StalledReads)
		}
	}
}

func TestBusyAvoidanceNeedsIdleDonors(t *testing.T) {
	// §4.4's rule presumes a reconstruction finds idle donors. With the
	// home drive and two of its four peers programming, only two of the
	// three donors would be idle: rebuilding waits for a program anyway and
	// reads three drives to do it, so the read goes home.
	cfg, drives, reader, info, off, item, home, at := sealedItem(t)
	programAllDies(t, cfg, drives[home], at)
	programPeers(t, cfg, drives, info, home, 2, at)
	got, _, st, err := reader.ReadRange(at+sim.Microsecond, info, off, len(item), ReadAvoidBusy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("wrong data")
	}
	if st.DirectShardReads != 1 || st.ReconstructedReads != 0 || st.BusyAvoided != 0 {
		t.Fatalf("home and two peers programming: %+v, want the one home read", st)
	}
}

func TestReadAroundHome(t *testing.T) {
	// A hedge's second arm: rebuilt from peers without touching the home
	// drive, whatever the home drive is doing — or not issued at all when
	// the peers could not serve it without a stall.
	cfg, drives, reader, info, off, item, home, at := sealedItem(t)
	homeRead := drives[home].Stats().HostBytesRead
	got, _, st, err := reader.ReadRange(at, info, off, len(item), ReadAroundHome, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, item) {
		t.Fatal("wrong data")
	}
	if st.DirectShardReads != 0 || st.ReconstructedReads != 1 || st.BusyAvoided != 0 {
		t.Fatalf("around an idle home drive: %+v, want 1 reconstructed and nothing else", st)
	}
	if drives[home].Stats().HostBytesRead != homeRead {
		t.Fatal("the second arm read the home drive")
	}

	at += sim.Second
	programPeers(t, cfg, drives, info, home, 2, at)
	_, _, st, err = reader.ReadRange(at+sim.Microsecond, info, off, len(item), ReadAroundHome, nil)
	if !errors.Is(err, ErrBusyPeers) {
		t.Fatalf("two of four peers programming: err = %v, want ErrBusyPeers", err)
	}
	if st.ShardBytesRead != 0 {
		t.Fatalf("a declined second arm moved %d bytes", st.ShardBytesRead)
	}
}

func TestStaggeredFlushLimitsConcurrentWriters(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	item := make([]byte, 8000)
	if _, _, err := w.AppendData(0, item); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	// Just after issue, only the first wave (MaxConcurrentWrites drives)
	// may be programming.
	busy := 0
	for _, d := range drives {
		if d.BusyAt(sim.Microsecond) {
			busy++
		}
	}
	if busy > cfg.MaxConcurrentWrites {
		t.Fatalf("%d drives busy right after flush, cap is %d", busy, cfg.MaxConcurrentWrites)
	}
}

func TestReadStripeLogs(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 7, segmentAUs(cfg, 6, 1))
	recs := [][]byte{[]byte("first"), []byte("second record"), []byte("third")}
	for i, rec := range recs {
		if _, err := w.AppendLog(0, rec, tuple.Seq(10*i+1), tuple.Seq(10*i+5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)
	logs, _, err := reader.ReadStripeLogs(0, w.Info(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs.Records) != 3 {
		t.Fatalf("recovered %d records", len(logs.Records))
	}
	for i := range recs {
		if !bytes.Equal(logs.Records[i], recs[i]) {
			t.Fatalf("record %d = %q", i, logs.Records[i])
		}
	}
	if logs.Trailer.SeqMin != 1 || logs.Trailer.SeqMax != 25 {
		t.Fatalf("trailer seq range [%d,%d]", logs.Trailer.SeqMin, logs.Trailer.SeqMax)
	}
	// An unwritten stripe has no valid trailer.
	if _, _, err := reader.ReadStripeLogs(0, withStripes(w.Info(), 2), 1); err == nil {
		t.Fatal("unwritten stripe parsed")
	}
}

func TestAUTrailerDiscovery(t *testing.T) {
	cfg, drives, coder := newTestRig(t, 6, 4)
	aus := segmentAUs(cfg, 6, 2)
	w, _ := NewWriter(cfg, drives, coder, 99, aus)
	if _, _, err := w.AppendData(0, make([]byte, 5000)); err != nil {
		t.Fatal(err)
	}
	info, _, err := w.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	reader := NewReader(cfg, drives, coder)
	for _, au := range aus {
		tr, _, err := reader.ReadAUTrailer(0, au)
		if err != nil {
			t.Fatalf("trailer on drive %d: %v", au.Drive, err)
		}
		if tr.Segment != 99 || tr.Stripes != info.Stripes {
			t.Fatalf("trailer = %+v", tr)
		}
	}
	// An unused AU reports ErrNoTrailer.
	if _, _, err := reader.ReadAUTrailer(0, AU{Drive: 0, Index: 3}); err != ErrNoTrailer {
		t.Fatalf("unused AU: %v", err)
	}
}

func TestAllocator(t *testing.T) {
	cfg, drives, _ := newTestRig(t, 6, 8)
	caps := make([]int64, len(drives))
	for i, d := range drives {
		caps[i] = d.Capacity()
	}
	a, err := NewAllocator(cfg, caps)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeAUs() != 6*8 {
		t.Fatalf("FreeAUs = %d, want 48", a.FreeAUs())
	}
	// Allocation before any refill: frontier is empty.
	if _, err := a.AllocateSegment(nil); err != ErrNeedFrontier {
		t.Fatalf("empty frontier: %v", err)
	}
	f := a.RefillFrontier(10)
	if len(f) != 10 || a.FrontierSize() != 10 {
		t.Fatalf("frontier = %d", len(f))
	}
	if a.FreeAUs() != 38 {
		t.Fatalf("FreeAUs after refill = %d", a.FreeAUs())
	}
	aus, err := a.AllocateSegment(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(aus) != cfg.TotalShards() {
		t.Fatalf("allocated %d AUs", len(aus))
	}
	seen := map[int]bool{}
	for _, au := range aus {
		if seen[au.Drive] {
			t.Fatalf("segment reuses drive %d", au.Drive)
		}
		seen[au.Drive] = true
		if au.Index < int64(cfg.BootAUs) {
			t.Fatalf("allocated boot AU %+v", au)
		}
	}
	if a.FrontierSize() != 5 {
		t.Fatalf("frontier after alloc = %d", a.FrontierSize())
	}
	// Freeing returns AUs to the pool; Free is idempotent.
	a.Free(aus)
	a.Free(aus)
	if a.FreeAUs() != 38+int64(len(aus)) {
		t.Fatalf("FreeAUs after free = %d", a.FreeAUs())
	}
}

// TestRefillDrawsRichestFirst pins the one draw both refills share: on
// equal allocators with an uneven free pool, RefillFrontier(n) and
// RefillSpeculative(n) pick the same AUs in the same order, each from the
// drive with the most free AUs at that moment (lowest drive on a tie),
// lowest index first.
func TestRefillDrawsRichestFirst(t *testing.T) {
	cfg, drives, _ := newTestRig(t, 6, 8)
	caps := make([]int64, len(drives))
	for i, d := range drives {
		caps[i] = d.Capacity()
	}
	boot := int64(cfg.BootAUs)
	// Drive 0 loses three AUs, drive 3 one (from the middle), drive 5 two.
	used := []AU{{0, boot}, {0, boot + 1}, {0, boot + 2}, {3, boot + 4}, {5, boot}, {5, boot + 7}}
	fresh := func() *Allocator {
		a, err := NewAllocator(cfg, caps)
		if err != nil {
			t.Fatal(err)
		}
		a.MarkInUse(used)
		return a
	}
	const n = 20
	front, spec := fresh().RefillFrontier(n), fresh().RefillSpeculative(n)
	if len(front) != n || !reflect.DeepEqual(front, spec) {
		t.Fatalf("frontier and speculative draws differ:\n%v\n%v", front, spec)
	}
	// Replay the rule against a plain count of each drive's free AUs.
	free := []int{5, 8, 8, 7, 8, 6}
	next := map[int]int64{}
	usedSet := map[AU]bool{}
	for _, au := range used {
		usedSet[au] = true
	}
	for i, au := range front {
		best := 0
		for d := range free {
			if free[d] > free[best] {
				best = d
			}
		}
		idx := boot + next[best]
		for usedSet[AU{best, idx}] {
			idx++
		}
		if (au != AU{best, idx}) {
			t.Fatalf("draw %d = %+v, want drive %d index %d (free %v)", i, au, best, idx, free)
		}
		next[best] = idx - boot + 1
		free[best]--
	}
}

func TestAllocatorSkipsFailedDrives(t *testing.T) {
	cfg, drives, _ := newTestRig(t, 6, 8)
	caps := make([]int64, len(drives))
	for i, d := range drives {
		caps[i] = d.Capacity()
	}
	a, _ := NewAllocator(cfg, caps)
	a.RefillFrontier(20)
	failed := func(d int) bool { return d == 2 }
	aus, err := a.AllocateSegment(failed)
	if err != nil {
		t.Fatal(err)
	}
	for _, au := range aus {
		if au.Drive == 2 {
			t.Fatal("allocated on failed drive")
		}
	}
	// With two failed drives only 4 healthy remain: cannot place 5 shards.
	failed2 := func(d int) bool { return d == 2 || d == 3 }
	if _, err := a.AllocateSegment(failed2); err != ErrNoSpace {
		t.Fatalf("allocation with 4 healthy drives: %v", err)
	}
}

func TestAllocatorSetFrontierAndMarkInUse(t *testing.T) {
	cfg, drives, _ := newTestRig(t, 6, 8)
	caps := make([]int64, len(drives))
	for i, d := range drives {
		caps[i] = d.Capacity()
	}
	a, _ := NewAllocator(cfg, caps)
	inUse := []AU{{0, 1}, {1, 1}, {2, 1}}
	a.MarkInUse(inUse)
	if a.FreeAUs() != 48-3 {
		t.Fatalf("FreeAUs after MarkInUse = %d", a.FreeAUs())
	}
	persisted := []AU{{0, 2}, {1, 2}, {2, 2}, {3, 1}, {4, 1}}
	a.SetFrontier(persisted)
	if a.FrontierSize() != 5 {
		t.Fatalf("frontier = %d", a.FrontierSize())
	}
	if a.FreeAUs() != 48-3-5 {
		t.Fatalf("FreeAUs after SetFrontier = %d", a.FreeAUs())
	}
	aus, err := a.AllocateSegment(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(aus) != 5 {
		t.Fatalf("allocated %d", len(aus))
	}
}

func TestDataSurvivesPowerLossBeforeSeal(t *testing.T) {
	// Flushed stripes of an unsealed segment are readable: recovery relies
	// on this to harvest log records after a crash.
	cfg, drives, coder := newTestRig(t, 6, 4)
	w, _ := NewWriter(cfg, drives, coder, 1, segmentAUs(cfg, 6, 1))
	if _, err := w.AppendLog(0, []byte("committed-fact"), 5, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Flush(0); err != nil {
		t.Fatal(err)
	}
	// "Crash": drop the writer. A fresh reader can still parse stripe 0.
	reader := NewReader(cfg, drives, coder)
	info := SegmentInfo{ID: 1, AUs: segmentAUs(cfg, 6, 1), Stripes: 1}
	logs, _, err := reader.ReadStripeLogs(0, info, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs.Records) != 1 || string(logs.Records[0]) != "committed-fact" {
		t.Fatalf("records = %q", logs.Records)
	}
}

func BenchmarkSegioFill(b *testing.B) {
	cfg, drives, coder := newTestRig(b, 6, 64)
	item := make([]byte, 16<<10)
	sim.NewRand(1).Bytes(item)
	b.SetBytes(int64(len(item)))
	var w *Writer
	var segID SegmentID
	auIdx := int64(1)
	for i := 0; i < b.N; i++ {
		if w == nil {
			segID++
			w, _ = NewWriter(cfg, drives, coder, segID, segmentAUs(cfg, 6, auIdx))
		}
		_, _, err := w.AppendData(0, item)
		if err == ErrSegmentFull {
			auIdx++
			if auIdx >= 64 {
				auIdx = 1 // reuse; data correctness not under test here
			}
			w = nil
			i--
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestAllocatorNeverDoubleAllocates(t *testing.T) {
	// Property: across arbitrary refill/allocate/free cycles, no AU is ever
	// owned by two live segments, and accounting stays conserved.
	cfg, drives, _ := newTestRig(t, 8, 16)
	caps := make([]int64, len(drives))
	for i, d := range drives {
		caps[i] = d.Capacity()
	}
	a, err := NewAllocator(cfg, caps)
	if err != nil {
		t.Fatal(err)
	}
	total := a.FreeAUs()
	owned := map[AU]int{} // AU -> owning allocation index
	var allocations [][]AU
	r := sim.NewRand(99)
	for step := 0; step < 2000; step++ {
		switch r.Intn(10) {
		case 0, 1:
			a.RefillFrontier(r.Intn(8) + 1)
		case 2, 3, 4, 5, 6:
			aus, err := a.AllocateSegment(nil)
			if err == ErrNeedFrontier {
				a.RefillFrontier(cfg.TotalShards() * 2)
				continue
			}
			if err == ErrNoSpace {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, au := range aus {
				if prev, taken := owned[au]; taken {
					t.Fatalf("step %d: AU %+v double-allocated (also in allocation %d)", step, au, prev)
				}
				owned[au] = len(allocations)
			}
			allocations = append(allocations, aus)
		default:
			if len(allocations) == 0 {
				continue
			}
			idx := r.Intn(len(allocations))
			aus := allocations[idx]
			if aus == nil {
				continue
			}
			a.Free(aus)
			for _, au := range aus {
				delete(owned, au)
			}
			allocations[idx] = nil
		}
		// Conservation: free + frontier + owned == total.
		sum := a.FreeAUs() + int64(a.FrontierSize()) + int64(len(owned))
		if sum != total {
			t.Fatalf("step %d: accounting broken: free=%d frontier=%d owned=%d total=%d",
				step, a.FreeAUs(), a.FrontierSize(), len(owned), total)
		}
	}
}
