package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"purity/internal/erasure"
	"purity/internal/sim"
	"purity/internal/ssd"
)

// ErrUnrecoverable is returned when fewer than K shards of a stripe are
// readable — more simultaneous failures than the parity geometry tolerates.
var ErrUnrecoverable = errors.New("layout: too few readable shards to reconstruct")

// ErrBusyPeers is returned by a ReadAroundHome read that was not issued
// because fewer than K peers are idle: the reconstruction would wait for a
// program or erase itself.
var ErrBusyPeers = errors.New("layout: too few idle peers to reconstruct around the home drive")

// ReadStats counts how a read was served, feeding experiment E2 (the
// paper's ≈1.3× read-cost model for write-heavy workloads) and the
// fault-tolerance telemetry.
type ReadStats struct {
	DirectShardReads   int64 // shard ranges read (and verified) from their home drive
	ReconstructedReads int64 // shard ranges rebuilt from peers
	ShardBytesRead     int64 // total bytes moved from drives
	BusyAvoided        int64 // reconstructions triggered by the busy-drive policy
	CRCMismatches      int64 // write units whose content failed the trailer CRC
	InlineRepairs      int64 // damaged write units rewritten in place after reconstruction
	HomeReadErrors     int64 // read errors from a live (not Failed) home drive
	HomeRetries        int64 // home-drive fallback retries after reconstruction failed
}

// Add accumulates other into s.
func (s *ReadStats) Add(other ReadStats) {
	s.DirectShardReads += other.DirectShardReads
	s.ReconstructedReads += other.ReconstructedReads
	s.ShardBytesRead += other.ShardBytesRead
	s.BusyAvoided += other.BusyAvoided
	s.CRCMismatches += other.CRCMismatches
	s.InlineRepairs += other.InlineRepairs
	s.HomeReadErrors += other.HomeReadErrors
	s.HomeRetries += other.HomeRetries
}

// ReadMode says when a read leaves a shard's home drive for its peers. A
// failed, lost or damaged home shard is reconstructed in every mode; the
// modes differ in when a reconstruction is chosen over a readable home
// drive, and a chosen reconstruction needs K idle peers (see leaveHome).
type ReadMode uint8

const (
	// ReadHome never chooses: it reads the home drive, however busy.
	ReadHome ReadMode = iota
	// ReadAvoidBusy reconstructs around a home drive that is programming or
	// erasing (§4.4: "treat SSDs that are in the process of writing data as
	// though they have failed").
	ReadAvoidBusy
	// ReadAroundHome never touches the home drive: the read is rebuilt from
	// peers, or fails with ErrBusyPeers without reading anything. It is the
	// second arm of a hedge, raced against a home read already in flight
	// (§4.4).
	ReadAroundHome
)

// Reader serves segment-logical reads, reconstructing from parity when a
// drive is failed, corrupt, or — in ReadAvoidBusy mode — busy programming
// or erasing. Every write unit served from a sealed segment
// is additionally checked against the CRCs in the AU trailer (§5.1's
// end-to-end integrity discipline, at the cost of a full write-unit read per
// shard access), so silently flipped bits are detected, reconstructed
// around, and repaired in place.
type Reader struct {
	cfg    Config
	drives []*ssd.Device
	coder  *erasure.Coder
	slots  slotTable

	// wuPool holds write-unit-sized scratch buffers (*[]byte) for the whole
	// write units that verification and reconstruction read. One rule keeps
	// them safe to reuse: a pooled buffer never leaves the function that
	// took it — it goes back on every return path, and bytes a caller wants
	// are copied (or reconstructed) into memory the caller owns. Buffers
	// come back dirty; ssd.Device.ReadAt overwrites all of one on success,
	// and nothing reads one whose ReadAt failed.
	wuPool sync.Pool

	mu       sync.Mutex
	crcCache map[SegmentID][][]uint32 // sealed segments' WUCRCs, from any shard's trailer
	// shardLost, when set, reports shards whose current AU holds no valid
	// data yet (a rebuild target mid-reconstruction). Such shards are read
	// via peers, never from the home AU.
	shardLost func(id SegmentID, slot int) bool
}

// NewReader returns a reader over the drive set.
func NewReader(cfg Config, drives []*ssd.Device, coder *erasure.Coder) *Reader {
	r := &Reader{cfg: cfg, drives: drives, coder: coder, slots: newSlotTable(cfg), crcCache: make(map[SegmentID][][]uint32)}
	r.wuPool.New = func() any {
		buf := make([]byte, cfg.WriteUnit)
		return &buf
	}
	return r
}

// takeWU borrows a write-unit scratch buffer with arbitrary content; the
// caller hands the same pointer to putWU before it returns.
func (r *Reader) takeWU() *[]byte { return r.wuPool.Get().(*[]byte) }

func (r *Reader) putWU(buf *[]byte) { r.wuPool.Put(buf) }

// SetShardLost installs the engine's lost-shard oracle (nil disables it).
func (r *Reader) SetShardLost(f func(id SegmentID, slot int) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shardLost = f
}

func (r *Reader) isLost(id SegmentID, slot int) bool {
	r.mu.Lock()
	f := r.shardLost
	r.mu.Unlock()
	return f != nil && f(id, slot)
}

// InvalidateSegment drops a segment's cached trailer CRCs. The engine calls
// it when a segment is retired (GC) so the cache cannot outlive the data.
func (r *Reader) InvalidateSegment(id SegmentID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.crcCache, id)
}

// segmentCRCs returns the [stripe][slot] write-unit CRCs of a sealed
// segment, reading one shard's AU trailer on first use. Any surviving
// shard's trailer serves (they are replicated); nil means no trailer was
// readable, in which case the caller falls back to unverified reads.
func (r *Reader) segmentCRCs(at sim.Time, info SegmentInfo) ([][]uint32, sim.Time) {
	r.mu.Lock()
	if crcs, ok := r.crcCache[info.ID]; ok {
		r.mu.Unlock()
		return crcs, at
	}
	r.mu.Unlock()
	done := at
	for slot := range info.AUs {
		if r.isLost(info.ID, slot) {
			continue
		}
		t, d, err := r.ReadAUTrailer(at, info.AUs[slot])
		if d > done {
			done = d
		}
		if err != nil || t.Segment != info.ID {
			continue
		}
		r.mu.Lock()
		r.crcCache[info.ID] = t.WUCRCs
		r.mu.Unlock()
		return t.WUCRCs, done
	}
	return nil, done
}

// ReadRange reads n logical bytes at offset off within the segment. The
// returned completion time is the latest involved drive completion.
func (r *Reader) ReadRange(at sim.Time, info SegmentInfo, off int64, n int, mode ReadMode) ([]byte, sim.Time, ReadStats, error) {
	var stats ReadStats
	if off < 0 || off+int64(n) > int64(info.Stripes)*int64(r.cfg.StripeDataBytes()) {
		return nil, at, stats, fmt.Errorf("layout: read [%d,+%d) outside segment %d (%d stripes)", off, n, info.ID, info.Stripes)
	}
	out := make([]byte, n)
	done := at
	stripeBytes := int64(r.cfg.StripeDataBytes())
	pos := off
	remaining := n
	outPos := 0
	for remaining > 0 {
		s := int(pos / stripeBytes)
		within := pos % stripeBytes
		chunk := stripeBytes - within
		if chunk > int64(remaining) {
			chunk = int64(remaining)
		}
		d, err := r.readWithinStripe(at, info, s, within, out[outPos:outPos+int(chunk)], mode, &stats)
		if err != nil {
			return nil, done, stats, err
		}
		if d > done {
			done = d
		}
		pos += chunk
		outPos += int(chunk)
		remaining -= int(chunk)
	}
	return out, done, stats, nil
}

// readWithinStripe fills dst from stripe s starting at logical offset
// `within` the stripe.
func (r *Reader) readWithinStripe(at sim.Time, info SegmentInfo, s int, within int64, dst []byte, mode ReadMode, stats *ReadStats) (sim.Time, error) {
	dataSlot := r.slots.at(s).data
	wu := int64(r.cfg.WriteUnit)
	done := at
	pos := within
	outPos := 0
	for outPos < len(dst) {
		d := int(pos / wu) // data shard index
		shardOff := pos % wu
		chunk := wu - shardOff
		if chunk > int64(len(dst)-outPos) {
			chunk = int64(len(dst) - outPos)
		}
		slot := dataSlot[d]
		t, err := r.readShardRange(at, info, s, slot, shardOff, dst[outPos:outPos+int(chunk)], mode, stats)
		if err != nil {
			return done, err
		}
		if t > done {
			done = t
		}
		pos += chunk
		outPos += int(chunk)
	}
	return done, nil
}

// readShardRange reads [shardOff, shardOff+len(dst)) of the write unit that
// slot holds in stripe s, reconstructing if the home drive is unavailable.
// Sealed segments take the verified path when a trailer is readable;
// everything else (unsealed segments, trailer loss) uses the unverified
// range path.
func (r *Reader) readShardRange(at sim.Time, info SegmentInfo, s, slot int, shardOff int64, dst []byte, mode ReadMode, stats *ReadStats) (sim.Time, error) {
	if info.Sealed {
		crcs, tAt := r.segmentCRCs(at, info)
		if s < len(crcs) && slot < len(crcs[s]) {
			return r.readShardVerified(tAt, info, s, slot, shardOff, dst, mode, crcs[s][slot], stats)
		}
	}

	au := info.AUs[slot]
	drive := r.drives[au.Drive]
	devOff := au.Offset(r.cfg) + int64(s)*int64(r.cfg.WriteUnit) + shardOff

	leave := r.leaveHome(at, info, s, slot, shardOff, len(dst), mode)
	if mode == ReadAroundHome && !leave {
		return at, ErrBusyPeers
	}
	busy := leave && mode == ReadAvoidBusy
	lost := r.isLost(info.ID, slot)
	if !lost && !leave && !drive.Failed() {
		if done, ok := readHome(at, drive, dst, devOff, stats); ok {
			return done, nil
		}
	}
	if busy {
		stats.BusyAvoided++
	}
	done, err := r.reconstructShardRange(at, info, s, slot, shardOff, dst, stats)
	if err != nil && mode != ReadAroundHome && !lost && !drive.Failed() {
		// Reconstruction impossible (too many peers failed or busy) but the
		// home drive is merely slow: queue behind its program and read it.
		stats.HomeRetries++
		if d2, ok := readHome(at, drive, dst, devOff, stats); ok {
			return d2, nil
		}
	}
	return done, err
}

// readHome reads dst's range straight from the home drive, unverified, and
// counts the outcome.
func readHome(at sim.Time, drive *ssd.Device, dst []byte, devOff int64, stats *ReadStats) (sim.Time, bool) {
	done, err := drive.ReadAt(at, dst, devOff)
	if err != nil {
		stats.HomeReadErrors++
		return done, false
	}
	stats.DirectShardReads++
	stats.ShardBytesRead += int64(len(dst))
	return done, true
}

// readShardVerified serves a shard range of a sealed segment with
// end-to-end integrity: the home write unit is read whole and checked
// against wantCRC from the AU trailer. A mismatch (bit rot) or read error
// (bad block) is treated as a missing shard — the write unit is
// reconstructed from verified peers, the caller's range served from the
// reconstruction, and the damaged copy rewritten in place on the home
// drive so the next read is clean again.
func (r *Reader) readShardVerified(at sim.Time, info SegmentInfo, s, slot int, shardOff int64, dst []byte, mode ReadMode, wantCRC uint32, stats *ReadStats) (sim.Time, error) {
	au := info.AUs[slot]
	drive := r.drives[au.Drive]
	wuOff := au.Offset(r.cfg) + int64(s)*int64(r.cfg.WriteUnit)

	// One scratch unit serves in turn as the home read, the reconstruction
	// and the home retry: each is done with the previous one's bytes.
	scratch := r.takeWU()
	defer r.putWU(scratch)
	wu := *scratch

	// The decision covers what the home read would touch: the whole unit,
	// not the caller's range of it.
	leave := r.leaveHome(at, info, s, slot, 0, len(wu), mode)
	if mode == ReadAroundHome && !leave {
		return at, ErrBusyPeers
	}
	busy := leave && mode == ReadAvoidBusy
	lost := r.isLost(info.ID, slot)
	needRepair := false
	if !lost && !leave && !drive.Failed() {
		if done, ok := readHomeVerified(at, drive, wu, wuOff, wantCRC, dst, shardOff, stats); ok {
			return done, nil
		}
		needRepair = true
	}
	if busy {
		stats.BusyAvoided++
	}
	done, err := r.ReconstructWU(at, info, s, slot, wu, stats)
	if err != nil {
		if busy && !drive.Failed() {
			// Reconstruction impossible but the home drive is merely slow:
			// queue behind its program and read (still verified).
			stats.HomeRetries++
			if d2, ok := readHomeVerified(at, drive, wu, wuOff, wantCRC, dst, shardOff, stats); ok {
				return d2, nil
			}
		}
		return done, err
	}
	stats.ReconstructedReads++
	copy(dst, wu[shardOff:shardOff+int64(len(dst))])
	if needRepair {
		// Inline repair: overwrite the damaged write unit with the
		// reconstruction. The FTL relocates the pages (clearing any bad
		// mapping), so the AU heals without segment evacuation. Failure is
		// tolerable — scrub or the next read will retry.
		//lint:ignore crashpointcheck repair rewrites data reconstructable from parity; a crash mid-repair leaves the stale shard, which the next read or scrub heals again
		if _, werr := drive.WriteAt(done, wu, wuOff); werr == nil {
			stats.InlineRepairs++
		}
	}
	return done, nil
}

// readHomeVerified reads a whole write unit from the home drive into wu and
// checks it against wantCRC; on a match it copies dst's range out of it.
// A read error or a mismatch is counted and reported as not ok.
func readHomeVerified(at sim.Time, drive *ssd.Device, wu []byte, wuOff int64, wantCRC uint32, dst []byte, shardOff int64, stats *ReadStats) (sim.Time, bool) {
	done, err := drive.ReadAt(at, wu, wuOff)
	if err != nil {
		stats.HomeReadErrors++
		return done, false
	}
	stats.ShardBytesRead += int64(len(wu))
	if crcOf(wu) != wantCRC {
		stats.CRCMismatches++
		return done, false
	}
	stats.DirectShardReads++
	copy(dst, wu[shardOff:shardOff+int64(len(dst))])
	return done, true
}

// ReconstructWU rebuilds the full write unit of shard `slot` in stripe s
// from K surviving peers into dst, which the caller owns and which must be
// one write unit long. When the segment's trailer CRCs are available, each
// donor write unit is verified before use and the reconstruction is
// verified after — a donor with silent damage is skipped like a failed
// drive, and a reconstruction that cannot be proven correct is an error
// rather than wrong data (dst's content is then unspecified). Scrub and
// rebuild share this path with the verified foreground read.
//
// The cost is K donor write units read and CRC-checked, one K-term pass of
// the coder over them for the one wanted unit, and one CRC of the result.
func (r *Reader) ReconstructWU(at sim.Time, info SegmentInfo, s, slot int, dst []byte, stats *ReadStats) (sim.Time, error) {
	k, m := r.cfg.DataShards, r.cfg.ParityShards
	coderIdx := r.slots.at(s).coder

	var crcRow []uint32
	if crcs, _ := r.segmentCRCs(at, info); s < len(crcs) {
		crcRow = crcs[s]
	}

	// Donor units are pooled scratch. Every buffer taken, including one
	// whose donor was then skipped, goes back when this function returns.
	taken := make([]*[]byte, 0, k)
	defer func() {
		for _, buf := range taken {
			r.putWU(buf)
		}
	}()

	shards := make([][]byte, k+m)
	done := at
	got := 0
	donors, _ := r.donorSlots(at, info, s, slot, 0, len(dst))
	for _, sl := range donors {
		if got == k {
			break
		}
		au := info.AUs[sl]
		drive := r.drives[au.Drive]
		scratch := r.takeWU()
		taken = append(taken, scratch)
		buf := *scratch
		t, err := drive.ReadAt(at, buf, au.Offset(r.cfg)+int64(s)*int64(r.cfg.WriteUnit))
		if err != nil {
			continue // corrupt or newly failed donor: try the next
		}
		stats.ShardBytesRead += int64(len(buf))
		if sl < len(crcRow) && crcOf(buf) != crcRow[sl] {
			stats.CRCMismatches++
			continue // silently damaged donor: as good as failed
		}
		shards[coderIdx[sl]] = buf
		got++
		if t > done {
			done = t
		}
	}
	if got < k {
		return done, ErrUnrecoverable
	}
	if err := r.coder.ReconstructShard(shards, coderIdx[slot], dst); err != nil {
		return done, err
	}
	if slot < len(crcRow) && crcOf(dst) != crcRow[slot] {
		return done, ErrUnrecoverable
	}
	return done, nil
}

// donorSlots lists the slots that can donate [off, off+n) of their write
// unit in stripe s towards rebuilding shard `slot`: every other slot whose
// shard is not lost and whose drive has not failed, those whose dies are
// not programming or erasing at `at` first — with K+M−1 candidates for K
// donors, a reconstruction can usually leave the busy ones out (§4.4).
func (r *Reader) donorSlots(at sim.Time, info SegmentInfo, s, slot int, off int64, n int) (donors []int, idleDonors int) {
	idle := make([]int, 0, len(info.AUs))
	var busy []int
	for sl, au := range info.AUs {
		drive := r.drives[au.Drive]
		if sl == slot || r.isLost(info.ID, sl) || drive.Failed() {
			continue
		}
		if drive.BusyRangeAt(at, au.Offset(r.cfg)+int64(s)*int64(r.cfg.WriteUnit)+off, n) {
			busy = append(busy, sl)
		} else {
			idle = append(idle, sl)
		}
	}
	return append(idle, busy...), len(idle)
}

// leaveHome reports whether a read of [off, off+n) of shard `slot` in
// stripe s chooses its peers over a readable home drive: in ReadAvoidBusy
// when the home drive would stall it behind a program or erase, in
// ReadAroundHome always — and in both only if K peers would not stall it.
// §4.4's rule assumes few enough drives write at once that a reconstruction
// always finds idle donors; when more do, rebuilding from a donor that is
// itself programming waits as long as the home read and moves K times the
// bytes.
func (r *Reader) leaveHome(at sim.Time, info SegmentInfo, s, slot int, off int64, n int, mode ReadMode) bool {
	switch mode {
	case ReadHome:
		return false
	case ReadAvoidBusy:
		au := info.AUs[slot]
		if !r.drives[au.Drive].BusyRangeAt(at, au.Offset(r.cfg)+int64(s)*int64(r.cfg.WriteUnit)+off, n) {
			return false
		}
	}
	_, idle := r.donorSlots(at, info, s, slot, off, n)
	return idle >= r.cfg.DataShards
}

// reconstructShardRange rebuilds the wanted range of shard `slot` from K of
// the other shards.
func (r *Reader) reconstructShardRange(at sim.Time, info SegmentInfo, s, slot int, shardOff int64, dst []byte, stats *ReadStats) (sim.Time, error) {
	k, m := r.cfg.DataShards, r.cfg.ParityShards
	coderIdx := r.slots.at(s).coder // physical slot -> coder shard index

	donors, _ := r.donorSlots(at, info, s, slot, shardOff, len(dst))
	if len(donors) < k {
		return at, ErrUnrecoverable
	}

	shards := make([][]byte, k+m)
	done := at
	got := 0
	for _, sl := range donors {
		if got == k {
			break
		}
		au := info.AUs[sl]
		buf := make([]byte, len(dst))
		devOff := au.Offset(r.cfg) + int64(s)*int64(r.cfg.WriteUnit) + shardOff
		t, err := r.drives[au.Drive].ReadAt(at, buf, devOff)
		if err != nil {
			continue // corrupt or newly failed donor: try the next
		}
		shards[coderIdx[sl]] = buf
		stats.ShardBytesRead += int64(len(buf))
		got++
		if t > done {
			done = t
		}
	}
	if got < k {
		return done, ErrUnrecoverable
	}
	if err := r.coder.ReconstructShard(shards, coderIdx[slot], dst); err != nil {
		return done, err
	}
	stats.ReconstructedReads++
	return done, nil
}

// ReadAUTrailer reads and parses the trailer page of an AU. ErrNoTrailer
// means the AU is unsealed or unused.
func (r *Reader) ReadAUTrailer(at sim.Time, au AU) (AUTrailer, sim.Time, error) {
	page := make([]byte, r.cfg.PageSize)
	off := au.Offset(r.cfg) + int64(r.cfg.StripesPerAU)*int64(r.cfg.WriteUnit)
	done, err := r.drives[au.Drive].ReadAt(at, page, off)
	if err != nil {
		return AUTrailer{}, done, err
	}
	t, err := parseAUTrailer(r.cfg, page)
	return t, done, err
}

// StripeLog holds the log records recovered from one segio.
type StripeLog struct {
	Records [][]byte
	Trailer segioTrailer
}

// ReadStripeLogs reads stripe s of the segment, validates its checksum and
// returns the log records. Recovery calls this for segments in the frontier
// set (§4.3); the stripe checksum rejects torn segios from a crash.
func (r *Reader) ReadStripeLogs(at sim.Time, info SegmentInfo, s int) (StripeLog, sim.Time, error) {
	raw, done, _, err := r.ReadRange(at, withStripes(info, s+1), int64(s)*int64(r.cfg.StripeDataBytes()), r.cfg.StripeDataBytes(), ReadHome)
	if err != nil {
		return StripeLog{}, done, err
	}
	t, err := parseSegioTrailer(raw)
	if err != nil {
		return StripeLog{}, done, err
	}
	out := StripeLog{Trailer: t}
	pos := int(t.LogStart)
	end := len(raw) - segioTrailerSize
	for i := uint32(0); i < t.RecCount; i++ {
		n, consumed := binary.Uvarint(raw[pos:end])
		if consumed <= 0 || pos+consumed+int(n) > end {
			return StripeLog{}, done, errors.New("layout: corrupt log record framing")
		}
		pos += consumed
		out.Records = append(out.Records, raw[pos:pos+int(n)])
		pos += int(n)
	}
	return out, done, nil
}

// withStripes returns info with Stripes raised to at least n, letting the
// recovery path read stripes of unsealed segments whose true stripe count
// is not yet known.
func withStripes(info SegmentInfo, n int) SegmentInfo {
	if info.Stripes < n {
		info.Stripes = n
	}
	return info
}

// ScrubStripe verifies every shard write unit of stripe s of a sealed
// segment against the trailer CRCs — using the segment's *current*
// placement (info.AUs), which may postdate the trailer after a rebuild —
// and repairs mismatched or unreadable units in place via reconstruction.
// Lost shards and failed drives are skipped (rebuild's job, not scrub's).
// Returns how many units were found bad and how many of those were
// repaired.
func (r *Reader) ScrubStripe(at sim.Time, info SegmentInfo, s int, stats *ReadStats) (bad, repaired int, done sim.Time) {
	crcs, done := r.segmentCRCs(at, info)
	if s >= len(crcs) {
		return 0, 0, done // no CRC row: nothing to verify against
	}
	// One scratch unit holds each slot's read in turn and, for a bad one,
	// then its reconstruction on the way back to the drive.
	scratch := r.takeWU()
	defer r.putWU(scratch)
	buf := *scratch
	for slot := range info.AUs {
		if slot >= len(crcs[s]) || r.isLost(info.ID, slot) {
			continue
		}
		au := info.AUs[slot]
		drive := r.drives[au.Drive]
		if drive.Failed() {
			continue
		}
		wuOff := au.Offset(r.cfg) + int64(s)*int64(r.cfg.WriteUnit)
		d, err := drive.ReadAt(done, buf, wuOff)
		if d > done {
			done = d
		}
		if err == nil {
			stats.ShardBytesRead += int64(len(buf))
			if crcOf(buf) == crcs[s][slot] {
				continue
			}
			stats.CRCMismatches++
		} else {
			stats.HomeReadErrors++
		}
		bad++
		d2, rerr := r.ReconstructWU(done, info, s, slot, buf, stats)
		if d2 > done {
			done = d2
		}
		if rerr != nil {
			continue // not recoverable right now; a later pass may succeed
		}
		//lint:ignore crashpointcheck scrub repair rewrites data reconstructable from parity; a crash mid-repair leaves the stale shard for the next pass
		if _, werr := drive.WriteAt(done, buf, wuOff); werr == nil {
			stats.InlineRepairs++
			repaired++
		}
	}
	return bad, repaired, done
}

// VerifyShard reports whether every write unit of shard `slot` in its
// current AU matches the segment's trailer CRCs. Rebuild uses it to make
// resumption idempotent: a shard whose swapped-in AU already verifies was
// fully copied before the crash and needs no second pass.
func (r *Reader) VerifyShard(at sim.Time, info SegmentInfo, slot int) (bool, sim.Time) {
	crcs, done := r.segmentCRCs(at, info)
	if len(crcs) < info.Stripes {
		return false, done
	}
	au := info.AUs[slot]
	drive := r.drives[au.Drive]
	if drive.Failed() {
		return false, done
	}
	scratch := r.takeWU()
	defer r.putWU(scratch)
	buf := *scratch
	for s := 0; s < info.Stripes; s++ {
		if slot >= len(crcs[s]) {
			return false, done
		}
		d, err := drive.ReadAt(done, buf, au.Offset(r.cfg)+int64(s)*int64(r.cfg.WriteUnit))
		if d > done {
			done = d
		}
		if err != nil || crcOf(buf) != crcs[s][slot] {
			return false, done
		}
	}
	return true, done
}

// RewriteShard populates the AU `au` on `drive` with one shard of a sealed
// segment: the write units wus[s] for each stripe, written in order so the
// drive sees a pure sequential append, followed by the shard's AU trailer.
// Rebuild uses it to place a reconstructed shard on a replacement drive;
// the caller supplies a trailer whose Shard/AUs fields reflect the new
// placement.
func RewriteShard(at sim.Time, cfg Config, drive *ssd.Device, au AU, t AUTrailer, wus [][]byte) (sim.Time, error) {
	done := at
	base := au.Offset(cfg)
	for s, wu := range wus {
		//lint:ignore crashpointcheck rebuild's data copy is bracketed by the rebuild.swap.committed and rebuild.shard.written points in core/rebuild.go; recovery step 7b re-verifies the shard
		d, err := drive.WriteAt(done, wu, base+int64(s)*int64(cfg.WriteUnit))
		if err != nil {
			return d, err
		}
		if d > done {
			done = d
		}
	}
	page, err := marshalAUTrailer(cfg, t)
	if err != nil {
		return done, err
	}
	//lint:ignore crashpointcheck trailer write of the rebuild copy; same bracketing as the write-unit loop above
	d, err := drive.WriteAt(done, page, base+int64(cfg.StripesPerAU)*int64(cfg.WriteUnit))
	if err != nil {
		return d, err
	}
	if d > done {
		done = d
	}
	return done, nil
}

// VerifyStripe re-reads every write unit of stripe s and checks it against
// the CRCs in the trailer t. It returns the slots whose write units are
// corrupt or unreadable. The scrubber (§5.1) uses this to find latent
// damage before a second failure makes it unrecoverable.
func (r *Reader) VerifyStripe(at sim.Time, t AUTrailer, s int) (badSlots []int, done sim.Time) {
	done = at
	scratch := r.takeWU()
	defer r.putWU(scratch)
	buf := *scratch
	for slot, au := range t.AUs {
		devOff := au.Offset(r.cfg) + int64(s)*int64(r.cfg.WriteUnit)
		d, err := r.drives[au.Drive].ReadAt(at, buf, devOff)
		if d > done {
			done = d
		}
		if err != nil {
			badSlots = append(badSlots, slot)
			continue
		}
		if crcOf(buf) != t.WUCRCs[s][slot] {
			badSlots = append(badSlots, slot)
		}
	}
	return badSlots, done
}
