package core

import (
	"bytes"
	"errors"
	"testing"

	"purity/internal/cblock"
	"purity/internal/layout"
	"purity/internal/medium"
	"purity/internal/sim"
)

// Every cblock read is checked by the frame's own CRC (layout.Reader,
// "checked reads"). The tests here hold the engine to the two cases the
// unit CRCs in the AU trailers cannot cover: a flushed stripe of a segment
// that is still open, and a segment recovery found open at the checkpoint,
// which never gets a trailer.

// writeUntilFlushed writes unique 8 KiB blocks to vol after the first one
// until the segment holding the block at offset 0 has flushed the stripe
// that holds it, and returns that block's extent and when the last write
// acked. The segment is still open then: its AU trailers are not written.
func writeUntilFlushed(t *testing.T, a *Array, vol VolumeID, at sim.Time) (medium.Extent, sim.Time) {
	t.Helper()
	const block = 8 << 10
	for off := int64(block); ; off += block {
		ext := extentAt(t, a, vol, 0)
		id := layout.SegmentID(ext.Addr.Segment)
		info, ok := a.segInfo(id)
		if !ok {
			t.Fatalf("segment %d unknown", id)
		}
		if _, open, _, _ := a.segEntry(id); !open {
			t.Fatalf("segment %d sealed before its first stripe flushed", id)
		}
		if int64(ext.Addr.SegOff) < int64(info.Stripes)*int64(a.cfg.Layout.StripeDataBytes()) {
			return ext, at
		}
		data := make([]byte, block)
		sim.NewRand(uint64(off)).Bytes(data)
		var err error
		if at, err = a.WriteAt(at, vol, off, data); err != nil {
			t.Fatal(err)
		}
	}
}

// extentAt resolves the one cblock extent that holds vol's sector at off.
func extentAt(t *testing.T, a *Array, vol VolumeID, off int64) medium.Extent {
	t.Helper()
	a.world.RLock()
	defer a.world.RUnlock()
	row, _, err := a.volume(0, vol)
	if err != nil {
		t.Fatal(err)
	}
	exts, _, err := medium.ResolveAll(0, (*lookupAdapter)(a), row.Medium, uint64(off)/cblock.SectorSize, 1)
	if err != nil || len(exts) != 1 || exts[0].Zero {
		t.Fatalf("resolve %d: %v, %+v", off, err, exts)
	}
	return exts[0]
}

// TestOpenSegmentFlipIsCaught flips one bit inside a cblock of a flushed
// stripe of an open segment, which has no unit CRC yet. The frame's own CRC
// catches it; the reader rebuilds the range around the home drive, and the
// read returns the bytes written.
func TestOpenSegmentFlipIsCaught(t *testing.T) {
	cfg := TestConfig()
	cfg.ReadPolicy.HedgePercentile = 0 // no second arm: the counts below are the read's own
	a, err := Format(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vol := mustCreate(t, a, "v", 2<<20)
	want := make([]byte, 8<<10)
	sim.NewRand(1).Bytes(want)
	at, err := a.WriteAt(0, vol, 0, want)
	if err != nil {
		t.Fatal(err)
	}
	ext, at := writeUntilFlushed(t, a, vol, at)
	info, _ := a.segInfo(layout.SegmentID(ext.Addr.Segment))
	frame, err := cblock.Pack(want, a.cfg.CompressionEnabled)
	if err != nil || len(frame) != int(ext.Addr.PhysLen) {
		t.Fatalf("frame %d bytes (%v), address says %d", len(frame), err, ext.Addr.PhysLen)
	}

	// The home unit is the one slot that holds the frame's first bytes at
	// the frame's offset within its unit.
	lc := a.cfg.Layout
	segOff := int64(ext.Addr.SegOff)
	unit := segOff / int64(lc.StripeDataBytes()) * int64(lc.WriteUnit)
	shardOff := segOff % int64(lc.StripeDataBytes()) % int64(lc.WriteUnit)
	head := frame[:min(16, len(frame), lc.WriteUnit-int(shardOff))]
	homes := 0
	var home layout.AU
	for _, au := range info.AUs {
		buf := make([]byte, len(head))
		if _, err := a.shelf.Drive(au.Drive).ReadAt(0, buf, au.Offset(lc)+unit+shardOff); err == nil && bytes.Equal(buf, head) {
			home = au
			homes++
		}
	}
	if homes != 1 {
		t.Fatalf("%d slots hold the frame's first bytes, want 1", homes)
	}
	a.shelf.Drive(home.Drive).FlipBit(home.Offset(lc)+unit+shardOff+int64(len(head))/2, 4)

	before := a.Stats().SegRead
	got, _, err := a.ReadAt(at+sim.Second, vol, 0, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read of a flipped cblock in an open segment returned other bytes")
	}
	st := a.Stats().SegRead
	if d := st.CRCMismatches - before.CRCMismatches; d != 1 {
		t.Errorf("%d CRC mismatches, want 1", d)
	}
	if d := st.ReconstructedReads - before.ReconstructedReads; d != 1 {
		t.Errorf("%d reconstructions, want 1", d)
	}
	if d := st.InlineRepairs - before.InlineRepairs; d != 0 {
		t.Errorf("%d inline repairs of a unit with no CRC to prove the repair, want 0", d)
	}
}

// TestTrailerlessSegmentProbedOnce: recovery marks a segment that was open
// at the checkpoint sealed, but no AU trailer was ever written for it. The
// reader looks for one once and remembers that there is none, so the next
// scrub step of that segment reads nothing at all; InvalidateSegment
// forgets that, as sealing or rebuilding the segment would need.
func TestTrailerlessSegmentProbedOnce(t *testing.T) {
	a := newArray(t)
	vol := mustCreate(t, a, "v", 2<<20)
	first := make([]byte, 8<<10)
	sim.NewRand(2).Bytes(first)
	at, err := a.WriteAt(0, vol, 0, first)
	if err != nil {
		t.Fatal(err)
	}
	ext, at := writeUntilFlushed(t, a, vol, at)
	a.world.Lock()
	a.mu.Lock()
	at, err = a.checkpointLocked(at)
	a.mu.Unlock()
	a.world.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	a2, _, err := OpenAt(TestConfig(), a.Shelf(), at, false)
	if err != nil {
		t.Fatal(err)
	}
	id := layout.SegmentID(ext.Addr.Segment)
	info, ok := a2.segMap[id]
	if !ok || !info.Sealed {
		t.Fatalf("segment %d after recovery: %+v, want it sealed in memory", id, info)
	}
	for _, au := range info.AUs {
		if _, _, err := a2.reader.ReadAUTrailer(0, au); !errors.Is(err, layout.ErrNoTrailer) {
			t.Fatalf("AU %+v of segment %d: %v, want no trailer", au, id, err)
		}
	}
	hostRead := func() int64 {
		var n int64
		for _, d := range a2.shelf.Drives() {
			n += d.Stats().HostBytesRead
		}
		return n
	}
	scrubStep := func() int64 {
		before := hostRead()
		var rep ScrubReport
		a2.mu.Lock()
		_, err := a2.scrubSegmentLocked(at, id, &rep)
		a2.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		return hostRead() - before
	}

	a2.reader.InvalidateSegment(id)
	probe := int64(len(info.AUs)) * int64(a2.cfg.Layout.PageSize)
	if n := scrubStep(); n != probe {
		t.Fatalf("first scrub step read %d bytes, want one trailer page per shard (%d)", n, probe)
	}
	if n := scrubStep(); n != 0 {
		t.Fatalf("second scrub step read %d bytes, want none: the missing trailer is remembered", n)
	}
	a2.reader.InvalidateSegment(id)
	if n := scrubStep(); n != probe {
		t.Fatalf("scrub step after InvalidateSegment read %d bytes, want the %d-byte probe again", n, probe)
	}

	// The segment's cblocks still read back, checked by their own CRCs.
	if got, _, err := a2.ReadAt(at, vol, 0, len(first)); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("read after recovery: %v", err)
	}
}
