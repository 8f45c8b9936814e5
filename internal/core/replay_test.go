package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"purity/internal/cblock"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/shelf"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// rewriteLog replaces every NVRAM mirror's log with edit(records): the
// records are appended again through Device.Append, so each carries a valid
// CRC — damage the framing cannot see.
func rewriteLog(t *testing.T, sh *shelf.Shelf, edit func([][]byte) [][]byte) {
	t.Helper()
	for i := 0; i < sh.NumNVRAM(); i++ {
		nv := sh.NVRAM(i)
		var recs [][]byte
		for _, r := range nv.Records() {
			recs = append(recs, r.Payload)
		}
		if err := nv.Release(nv.Head()); err != nil {
			t.Fatal(err)
		}
		for _, rec := range edit(recs) {
			if _, _, err := nv.Append(0, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplayRejectsTruncatedFrame: a write record whose CRC is valid but
// whose frame is shorter than its address fact's PhysLen is rejected as
// malformed, and the records before and after it still replay. Replay
// places frames without unpacking them, so the length check is all that
// stands between such a record and a cblock that reads back short.
func TestReplayRejectsTruncatedFrame(t *testing.T) {
	cfg := crashTestConfig(nil)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	before, damaged, after := pattern(11, 8192), pattern(12, 8192), pattern(13, 8192)
	for _, w := range []struct {
		off  int64
		data []byte
	}{{0, before}, {64 << 10, damaged}, {128 << 10, after}} {
		if now, err = a.WriteAt(now, vol, w.off, w.data); err != nil {
			t.Fatal(err)
		}
	}

	// Cut the middle write's frame in half.
	truncated := 0
	rewriteLog(t, a.Shelf(), func(recs [][]byte) [][]byte {
		for i, b := range recs {
			rec := decodeRecord(b)
			if rec.kind != recWrite || relation.AddrFromFact(rec.chunks[0].addr).Sector != (64<<10)/cblock.SectorSize {
				continue
			}
			ch := &rec.chunks[0]
			ch.frame = ch.frame[:len(ch.frame)/2]
			recs[i] = appendWriteRecord(nil, rec.chunks)
			truncated++
		}
		return recs
	})
	if truncated != a.Shelf().NumNVRAM() {
		t.Fatalf("truncated %d records, want one per mirror (%d)", truncated, a.Shelf().NumNVRAM())
	}

	a2, rs, err := OpenAt(cfg, a.Shelf(), now, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rs.RecordsRejected != 1 {
		t.Fatalf("RecordsRejected = %d, want 1 (the truncated frame)", rs.RecordsRejected)
	}
	for _, w := range []struct {
		off  int64
		want []byte
	}{{0, before}, {64 << 10, make([]byte, 8192)}, {128 << 10, after}} {
		got, d, err := a2.ReadAt(now, vol, w.off, len(w.want))
		if err != nil {
			t.Fatalf("read at %d: %v", w.off, err)
		}
		now = d
		if !bytes.Equal(got, w.want) {
			t.Fatalf("read at %d differs from the model", w.off)
		}
	}
}

// flushMeta flushes one pyramid through every sequence number issued so
// far — what a world-exclusive background step does — and returns the meta
// segment its patch landed in, still open.
func flushMeta(t *testing.T, a *Array, now sim.Time, relID uint32) (layout.SegmentID, sim.Time) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.persistedSeq = a.seqs.Current()
	now, err := a.pyr[relID].Flush(now, tuple.Seq(a.persistedSeq))
	if err != nil {
		t.Fatal(err)
	}
	m := a.slots[classMeta].w
	if m == nil {
		t.Fatal("the flush wrote no page")
	}
	return m.Info().ID, now
}

// sealMeta seals the open meta segment, standing in for it filling and
// rotating: its trailer is what the next recovery's frontier scan finds.
func sealMeta(t *testing.T, a *Array, now sim.Time) sim.Time {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	now, err := a.sealSlotLocked(now, &a.slots[classMeta])
	if err != nil {
		t.Fatal(err)
	}
	return now
}

// The two tests below build, by hand, the cases recovery's segment-ID bound
// must cover without scanning the pyramids (recover.go, step 6): a patch
// sealed since the last checkpoint names a segment that was open at the
// crash and is named by no trailer or page reference. Neither case involves
// a boot-region write, which would persist NextSegment and bound every ID
// trivially; each test checks that none happened.

// TestRemappedFactSurvivesSecondCrash: the first recovery remaps a write
// into segment X; a flush lands X's address facts in a meta segment that
// seals; the array dies with X open. No NVRAM record names X (the record
// still names the original segment): the sealed meta segment, allocated
// after X, is what bounds it. The second recovery must open nothing at X
// and read the write back.
func TestRemappedFactSurvivesSecondCrash(t *testing.T) {
	cfg := crashTestConfig(nil)
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol, now, err := a.CreateVolume(0, "v", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = a.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	data := pattern(21, 32<<10)
	if now, err = a.WriteAt(now, vol, 0, data); err != nil {
		t.Fatal(err)
	}

	// First crash and recovery: replay remaps the write into X.
	a1, _, err := OpenAt(cfg, a.Shelf(), now, false)
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	replayed := a1.slots[classData].w
	if replayed == nil {
		t.Fatal("first recovery opened no data segment")
	}
	x := replayed.Info().ID
	epoch := a1.epoch
	m, now := flushMeta(t, a1, now, relation.IDAddrs)
	if m <= x {
		t.Fatalf("X's facts landed in meta segment %d, want one allocated after X = %d", m, x)
	}
	now = sealMeta(t, a1, now)
	if a1.epoch != epoch {
		t.Fatal("a boot-region write persisted NextSegment: the case under test needs none")
	}
	if _, open := a1.openByID[x]; !open {
		t.Fatal("X sealed: the case under test needs it open at the crash")
	}

	// Second crash and recovery.
	a2, _, err := OpenAt(cfg, a1.Shelf(), now, false)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if a2.nextSegment <= uint64(x) {
		t.Fatalf("nextSegment %d after the second recovery, want > X = %d", a2.nextSegment, x)
	}
	if y := a2.slots[classData].w.Info().ID; y <= x {
		t.Fatalf("second recovery replayed into segment %d, reusing an ID at or below X = %d", y, x)
	}
	if _, err := a2.Check(now); err != nil {
		t.Fatal(err)
	}
	got, _, err := a2.ReadAt(now, vol, 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("write differs from the model after two crashes")
	}
}

// laneSegmentsCrash is the state TestRecordsBoundOpenLaneSegments and
// TestSegmentBoundWithoutWholeLog recover from: two lanes' writes open
// segments S1 < S2 after a meta segment M; a flush lands their address
// facts in M, which seals; the array dies with S1 and S2 open. M's trailer
// and page references stop at M, so only the NVRAM records name S1 and S2.
type laneSegmentsCrash struct {
	cfg  Config
	a    *Array
	vols [2]VolumeID
	data [2][]byte
	segs [2]layout.SegmentID
	now  sim.Time
}

func newLaneSegmentsCrash(t *testing.T) laneSegmentsCrash {
	t.Helper()
	c := laneSegmentsCrash{cfg: crashTestConfig(nil)}
	c.cfg.CommitLanes = 4
	a, err := Format(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.a = a
	now := sim.Time(0)
	for i := range c.vols {
		if c.vols[i], now, err = a.CreateVolume(now, fmt.Sprintf("v%d", i), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = a.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	// Retire the meta segment the checkpoint left open, and open M with
	// another volume's facts.
	now = sealMeta(t, a, now)
	if _, now, err = a.CreateVolume(now, "other", 1<<20); err != nil {
		t.Fatal(err)
	}
	m, now := flushMeta(t, a, now, relation.IDVolumes)
	epoch := a.epoch

	c.data = [2][]byte{pattern(31, 16<<10), pattern(32, 16<<10)}
	for i, vol := range c.vols {
		if now, err = a.WriteAt(now, vol, 0, c.data[i]); err != nil {
			t.Fatal(err)
		}
		c.segs[i] = a.laneFor(vol).slot.w.Info().ID
	}
	if !(m < c.segs[0] && c.segs[0] < c.segs[1]) {
		t.Fatalf("segments M=%d, S1=%d, S2=%d: want M < S1 < S2", m, c.segs[0], c.segs[1])
	}
	if got, now2 := flushMeta(t, a, now, relation.IDAddrs); got != m {
		t.Fatalf("the lanes' facts landed in meta segment %d, want M = %d", got, m)
	} else {
		now = sealMeta(t, a, now2)
	}
	if a.epoch != epoch {
		t.Fatal("a boot-region write persisted NextSegment: the case under test needs none")
	}
	c.now = now
	return c
}

// recoverAndCheck recovers c's shelf, checks the segment bound, and reads
// each volume's write back against want.
func (c laneSegmentsCrash) recoverAndCheck(t *testing.T, want [2][]byte) *Array {
	t.Helper()
	a2, _, err := OpenAt(c.cfg, c.a.Shelf(), c.now, false)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if a2.nextSegment <= uint64(c.segs[1]) {
		t.Fatalf("nextSegment %d after recovery, want > S2 = %d", a2.nextSegment, c.segs[1])
	}
	if _, err := a2.Check(c.now); err != nil {
		t.Fatal(err)
	}
	c.readBack(t, a2, want)
	return a2
}

func (c laneSegmentsCrash) readBack(t *testing.T, a *Array, want [2][]byte) {
	t.Helper()
	for i, vol := range c.vols {
		got, _, err := a.ReadAt(c.now, vol, 0, len(want[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("volume %d differs from the model after recovery", vol)
		}
	}
}

// TestRecordsBoundOpenLaneSegments: replay re-places both writes into one
// segment, so without the records loop's bump S2 would stay at or above
// nextSegment.
func TestRecordsBoundOpenLaneSegments(t *testing.T) {
	c := newLaneSegmentsCrash(t)
	c.recoverAndCheck(t, c.data)
}

// TestSegmentBoundWithoutWholeLog: the same state, recovered without the
// records that name S1 and S2 — every NVRAM mirror lost, or S2's record
// rejected. Recovery must fall back to scanning the pyramids, or the
// segments it and the next writes open reuse S1 and S2, and M's stale facts
// for them read back other writes' bytes.
func TestSegmentBoundWithoutWholeLog(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(t *testing.T, c laneSegmentsCrash)
		want func(c laneSegmentsCrash) [2][]byte // what each volume reads back
	}{
		{
			name: "every mirror lost",
			lose: func(t *testing.T, c laneSegmentsCrash) {
				for i := 0; i < c.a.Shelf().NumNVRAM(); i++ {
					c.a.Shelf().NVRAM(i).Fail()
				}
			},
			want: func(c laneSegmentsCrash) [2][]byte {
				return [2][]byte{make([]byte, len(c.data[0])), make([]byte, len(c.data[1]))}
			},
		},
		{
			name: "S2's record rejected",
			lose: func(t *testing.T, c laneSegmentsCrash) {
				rewriteLog(t, c.a.Shelf(), func(recs [][]byte) [][]byte {
					for i, b := range recs {
						rec := decodeRecord(b)
						if rec.kind != recWrite || relation.AddrFromFact(rec.chunks[0].addr).Segment != uint64(c.segs[1]) {
							continue
						}
						ch := &rec.chunks[0]
						ch.frame = ch.frame[:len(ch.frame)/2]
						recs[i] = appendWriteRecord(nil, rec.chunks)
					}
					return recs
				})
			},
			want: func(c laneSegmentsCrash) [2][]byte {
				return [2][]byte{c.data[0], make([]byte, len(c.data[1]))}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newLaneSegmentsCrash(t)
			tc.lose(t, c)
			want := tc.want(c)
			a2 := c.recoverAndCheck(t, want)
			// Lost mirrors are replaced with empty ones; then new writes
			// elsewhere open fresh lane segments, none of which may take S1's
			// or S2's ID.
			for i := 0; i < c.a.Shelf().NumNVRAM(); i++ {
				if nv := c.a.Shelf().NVRAM(i); nv.Failed() {
					if err := nv.Release(nv.Head()); err != nil {
						t.Fatal(err)
					}
					nv.Revive()
				}
			}
			now := c.now
			var err error
			for i, vol := range c.vols {
				if now, err = a2.WriteAt(now, vol, 512<<10, pattern(uint64(41+i), 16<<10)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a2.Check(now); err != nil {
				t.Fatal(err)
			}
			c.readBack(t, a2, want)
		})
	}
}

// encodeRecord frames a decoded record again: the inverse FuzzDecodeRecord
// holds decodeRecord to.
func encodeRecord(rec replayRec) []byte {
	if rec.kind == recFacts {
		return encodeFactsRecord(rec.relID, rec.facts)
	}
	return appendWriteRecord(nil, rec.chunks)
}

// FuzzDecodeRecord feeds arbitrary bytes to the decoder recovery runs on
// whatever the NVRAM log holds. It must never panic, must reject only with
// errBadRecord, and whatever it accepts must come back unchanged through
// encode → decode. The seeds are the real encoders' output: a literal
// chunk, a dedup reference, a multi-chunk write, and facts records.
func FuzzDecodeRecord(f *testing.F) {
	frame := func(seed uint64, n int) []byte {
		b, err := cblock.Pack(pattern(seed, n), true)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	literal := func(sector, seg, off uint64, fr []byte, seq tuple.Seq) writeChunk {
		return writeChunk{
			addr: relation.AddrRow{Medium: 3, Sector: sector, Segment: seg, SegOff: off,
				PhysLen: uint64(len(fr)), Sectors: 8}.Fact(seq),
			dedup: []tuple.Fact{relation.DedupRow{Hash: 0xfeedface, Segment: seg, SegOff: off,
				PhysLen: uint64(len(fr))}.Fact(seq + 1)},
			frame: fr,
		}
	}
	ref := writeChunk{addr: relation.AddrRow{Medium: 3, Sector: 8, Segment: 2, SegOff: 512,
		PhysLen: 1400, Inner: 4, Sectors: 4, Flags: relation.AddrFlagDedup}.Fact(40)}
	f1, f2 := frame(1, 4096), frame(2, 4096)
	for _, seed := range [][]byte{
		appendWriteRecord(nil, []writeChunk{literal(0, 5, 0, f1, 10)}),
		appendWriteRecord(nil, []writeChunk{ref}),
		appendWriteRecord(nil, []writeChunk{literal(0, 5, 0, f1, 20), ref, literal(12, 5, uint64(len(f1)), f2, 30)}),
		encodeFactsRecord(relation.IDAddrs, []tuple.Fact{ref.addr}),
		encodeFactsRecord(relation.IDVolumes, []tuple.Fact{relation.VolumeRow{Volume: 1, Medium: 3,
			SizeSectors: 2048, Name: "vol0"}.Fact(7)}),
	} {
		if rec := decodeRecord(seed); rec.err != nil {
			f.Fatalf("seed rejected: %v", rec.err)
		}
		f.Add(seed)
	}
	for _, bad := range [][]byte{{}, {recWrite}, {9}} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec := decodeRecord(b)
		if rec.err != nil {
			if !errors.Is(rec.err, errBadRecord) {
				t.Fatalf("rejected without errBadRecord: %v", rec.err)
			}
			return
		}
		again := decodeRecord(encodeRecord(rec))
		if again.err != nil {
			t.Fatalf("re-encoded record rejected: %v", again.err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("encode → decode changed the record:\n%+v\n%+v", rec, again)
		}
	})
}
