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

// ErrCheckFailed is returned by a checked read whose range still failed
// its check after the re-reads: the bytes at that address are not what the
// caller expects, and no copy the reader can reach is.
var ErrCheckFailed = errors.New("layout: range failed its check on every copy")

// ReadStats counts how a read was served, feeding experiment E2 (the
// paper's ≈1.3× read-cost model for write-heavy workloads) and the
// fault-tolerance telemetry.
type ReadStats struct {
	DirectShardReads   int64 // shard ranges served by their home drive (checked by the caller's check, or by the unit CRC on a re-read)
	ReconstructedReads int64 // shard ranges rebuilt from peers
	ShardBytesRead     int64 // total bytes moved from drives
	BusyAvoided        int64 // reconstructions triggered by the busy-drive policy
	CRCMismatches      int64 // ranges that failed the caller's check, and write units that failed the trailer CRC
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
// or erasing. Every shard access is one readShardRange. Every byte a read
// returns is checked end to end (§5.1), by one rule: a range the caller can
// check (a cblock frame, a pyramid page) is read alone and checked by the
// caller's check; only when that fails is it re-read through the write
// units' trailer CRCs — whole units, reconstructed around damage and
// repaired in place — or, in a segment with no unit CRCs (an open
// segment's flushed stripes, a sealed one whose trailers cannot be read),
// rebuilt around its home drive and checked again. A read with no check
// of its own goes through the unit CRCs from the start.
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
	crcCache map[SegmentID][][]uint32 // sealed segments' WUCRCs, from any shard's trailer; nil for one with no trailer
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

// InvalidateSegment drops a segment's cached trailer CRCs, or its
// remembered lack of a trailer. The engine calls it when a segment is
// retired (GC) so the cache cannot outlive the data, and whenever it writes
// the segment's trailers (seal, rebuild).
func (r *Reader) InvalidateSegment(id SegmentID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.crcCache, id)
}

// segmentCRCs returns the [stripe][slot] write-unit CRCs of a sealed
// segment, reading one shard's AU trailer on first use. Any surviving
// shard's trailer serves (they are replicated); nil means no trailer was
// readable, in which case the caller has no unit CRC to check against. A
// segment whose every probed shard has no trailer (ErrNoTrailer, as for a
// segment recovery found open at the checkpoint) is remembered as such and
// not probed again; a read error may be transient and is not remembered.
func (r *Reader) segmentCRCs(at sim.Time, info SegmentInfo) ([][]uint32, sim.Time) {
	r.mu.Lock()
	if crcs, ok := r.crcCache[info.ID]; ok {
		r.mu.Unlock()
		return crcs, at
	}
	r.mu.Unlock()
	done := at
	probed, none := 0, 0
	for slot := range info.AUs {
		if r.isLost(info.ID, slot) {
			continue
		}
		t, d, err := r.ReadAUTrailer(at, info.AUs[slot])
		if d > done {
			done = d
		}
		probed++
		if errors.Is(err, ErrNoTrailer) {
			none++
		}
		if err != nil || t.Segment != info.ID {
			continue
		}
		r.mu.Lock()
		r.crcCache[info.ID] = t.WUCRCs
		r.mu.Unlock()
		return t.WUCRCs, done
	}
	if probed > 0 && none == probed {
		r.mu.Lock()
		r.crcCache[info.ID] = nil
		r.mu.Unlock()
	}
	return nil, done
}

// ReadRange reads n logical bytes at offset off within the segment. The
// returned completion time is the latest involved drive completion.
//
// check is the range's own end-to-end check: cblock.Check for a cblock
// frame, pagecodec.ChecksumOK for a pyramid page. With one, the read moves
// only the range, and if check passes it is done. If check fails (or the
// read does), the range is re-read, from when that read landed, through the
// unit CRCs: whole write units, reconstruction around damage, inline repair;
// a unit with no CRC is rebuilt around its home drive instead. Then check
// asks again, and failing that one last home read is made, as after any
// failed reconstruction. A nil check reads through the unit CRCs from the
// start; recovery's stripe reads use it. A hedge's second arm that declines
// (ErrBusyPeers) read nothing, so it is returned without a re-read.
func (r *Reader) ReadRange(at sim.Time, info SegmentInfo, off int64, n int, mode ReadMode, check func([]byte) bool) ([]byte, sim.Time, ReadStats, error) {
	var stats ReadStats
	// Written so no sum can overflow: off and n come from descriptors that
	// recovery parses.
	if size := int64(info.Stripes) * int64(r.cfg.StripeDataBytes()); off < 0 || n < 0 || off > size || int64(n) > size-off {
		return nil, at, stats, fmt.Errorf("layout: read [%d,+%d) outside segment %d (%d stripes)", off, n, info.ID, info.Stripes)
	}
	out := make([]byte, n)
	if check == nil {
		done, err := r.readRange(at, info, off, out, mode, unitRead, &stats)
		if err != nil {
			return nil, done, stats, err
		}
		return out, done, stats, nil
	}
	done, err := r.readRange(at, info, off, out, mode, rangeRead, &stats)
	if err == nil && check(out) {
		return out, done, stats, nil
	}
	if errors.Is(err, ErrBusyPeers) {
		return nil, done, stats, err
	}
	if err == nil {
		stats.CRCMismatches++
	}
	done, err = r.readRange(done, info, off, out, mode, fallbackRead, &stats)
	if err == nil && check(out) {
		return out, done, stats, nil
	}
	if mode != ReadAroundHome {
		// Without unit CRCs the fallback could only rebuild around home,
		// and a damaged peer spoils that when home was right all along.
		stats.HomeRetries++
		done, err = r.readRange(done, info, off, out, ReadHome, rangeRead, &stats)
		if err == nil && check(out) {
			return out, done, stats, nil
		}
	}
	if err == nil {
		err = ErrCheckFailed
	}
	return nil, done, stats, err
}

// readKind says how a shard read is sized and checked.
type readKind uint8

const (
	// rangeRead moves the caller's range only and checks nothing: the
	// caller checks it.
	rangeRead readKind = iota
	// unitRead moves and checks the whole write unit when the segment's
	// trailer gives it a CRC, and the range otherwise.
	unitRead
	// fallbackRead is unitRead for a range that failed its check: a unit
	// with no CRC is rebuilt around its home drive, which may be what
	// served the bytes that failed.
	fallbackRead
)

// readRange fills dst from the segment's logical bytes at off, one
// readShardRange per write unit the range touches.
func (r *Reader) readRange(at sim.Time, info SegmentInfo, off int64, dst []byte, mode ReadMode, kind readKind, stats *ReadStats) (sim.Time, error) {
	stripeBytes := int64(r.cfg.StripeDataBytes())
	wu := int64(r.cfg.WriteUnit)
	done := at
	for pos := 0; pos < len(dst); {
		s := int((off + int64(pos)) / stripeBytes)
		within := (off + int64(pos)) % stripeBytes
		shardOff := within % wu
		n := int(min(wu-shardOff, int64(len(dst)-pos)))
		slot := r.slots.at(s).data[within/wu]
		t, err := r.readShardRange(at, info, s, slot, shardOff, dst[pos:pos+n], mode, kind, stats)
		if err != nil {
			return done, err
		}
		done = max(done, t)
		pos += n
	}
	return done, nil
}

// readShardRange reads [shardOff, shardOff+len(dst)) of the write unit that
// slot holds in stripe s. It is the one shard read, in two sizes. When kind
// asks for the unit CRC and the sealed segment's trailer gives the unit
// one, the home read moves the whole unit into pooled scratch and checks it
// (§5.1), starting when the trailer lookup does; any other read moves only
// the range straight into dst, for the caller to check. Either way the same
// rules follow: leave home (leaveHome, asked about the bytes the home read
// would move, or always for a fallback with no CRC) or read it, reconstruct
// when home is not read or fails, make one last home read when the
// reconstruction fails, copy out, and repair a damaged checked unit.
func (r *Reader) readShardRange(at sim.Time, info SegmentInfo, s, slot int, shardOff int64, dst []byte, mode ReadMode, kind readKind, stats *ReadStats) (sim.Time, error) {
	var crcRow []uint32
	if kind != rangeRead && info.Sealed {
		if crcs, tAt := r.segmentCRCs(at, info); s < len(crcs) && slot < len(crcs[s]) {
			crcRow, at = crcs[s], tAt
		}
	}
	// buf is what the home read, the reconstruction and the home retry each
	// fill in turn, at [off, off+len(buf)) of the unit; each is done with
	// the previous one's bytes.
	off, buf := shardOff, dst
	if crcRow != nil {
		scratch := r.takeWU()
		defer r.putWU(scratch)
		off, buf = 0, *scratch
	}
	au := info.AUs[slot]
	drive := r.drives[au.Drive]
	devOff := au.Offset(r.cfg) + int64(s)*int64(r.cfg.WriteUnit) + off

	around := kind == fallbackRead && crcRow == nil
	leave := around || r.leaveHome(at, info, s, slot, off, len(buf), mode)
	if mode == ReadAroundHome && !leave {
		return at, ErrBusyPeers
	}
	lost := r.isLost(info.ID, slot)
	damaged := false
	if !lost && !leave && !drive.Failed() {
		if done, ok := readHome(at, drive, buf, devOff, crcRow, slot, stats); ok {
			copy(dst, buf[shardOff-off:]) // no copy when buf is dst
			return done, nil
		}
		damaged = true
	}
	if leave && !around && mode == ReadAvoidBusy {
		stats.BusyAvoided++
	}
	done, err := r.reconstruct(at, info, s, slot, off, buf, crcRow, stats)
	switch {
	case err == nil:
		stats.ReconstructedReads++
		if damaged && crcRow != nil {
			// Inline repair: overwrite the damaged write unit with the
			// reconstruction. The FTL relocates the pages (clearing any bad
			// mapping), so the AU heals without segment evacuation. Failure
			// is tolerable — scrub or the next read will retry.
			//lint:ignore crashpointcheck repair rewrites data reconstructable from parity; a crash mid-repair leaves the stale shard, which the next read or scrub heals again
			if _, werr := drive.WriteAt(done, buf, devOff); werr == nil {
				stats.InlineRepairs++
			}
		}
	case mode == ReadAroundHome || drive.Failed() || (lost && crcRow == nil):
		// Reconstruction impossible, and no home read to fall back on: a
		// hedge's second arm never reads home, a failed drive cannot, and a
		// lost slot's bytes cannot be trusted unless a CRC checks them.
		return done, err
	default:
		// Reconstruction impossible (too many peers failed, damaged or
		// busy): one last home read, queued behind whatever the drive is
		// doing.
		stats.HomeRetries++
		d2, ok := readHome(at, drive, buf, devOff, crcRow, slot, stats)
		if !ok {
			return done, err
		}
		done = d2
	}
	copy(dst, buf[shardOff-off:])
	return done, nil
}

// readHome reads buf from the home drive at devOff and, given the stripe's
// CRC row, checks it against slot's CRC. A read error or a mismatch is
// counted and reported as not ok.
func readHome(at sim.Time, drive *ssd.Device, buf []byte, devOff int64, crcRow []uint32, slot int, stats *ReadStats) (sim.Time, bool) {
	done, err := drive.ReadAt(at, buf, devOff)
	if err != nil {
		stats.HomeReadErrors++
		return done, false
	}
	stats.ShardBytesRead += int64(len(buf))
	if crcRow != nil && crcOf(buf) != crcRow[slot] {
		stats.CRCMismatches++
		return done, false
	}
	stats.DirectShardReads++
	return done, true
}

// ReconstructWU rebuilds the full write unit of shard `slot` in stripe s
// into dst, which the caller owns and which must be one write unit long,
// checked against the segment's trailer CRCs when it has them (see
// reconstruct). Rebuild uses it; dst's content is unspecified on error.
func (r *Reader) ReconstructWU(at sim.Time, info SegmentInfo, s, slot int, dst []byte, stats *ReadStats) (sim.Time, error) {
	var crcRow []uint32
	if crcs, _ := r.segmentCRCs(at, info); s < len(crcs) {
		crcRow = crcs[s]
	}
	return r.reconstruct(at, info, s, slot, 0, dst, crcRow, stats)
}

// reconstruct rebuilds [off, off+len(dst)) of the write unit that `slot`
// holds in stripe s from the same range of K other shards. Given the
// stripe's CRC row and a whole unit, each donor is checked before use and
// the result after: a donor with silent damage is skipped like a failed
// drive, and a reconstruction that cannot be proven correct is an error
// rather than wrong data (dst's content is then unspecified). It reads
// nothing when fewer than K donors exist.
//
// The cost is K donor ranges read into pooled scratch (and CRC-checked),
// one K-term pass of the coder over them for the one wanted shard, and one
// CRC of the result.
func (r *Reader) reconstruct(at sim.Time, info SegmentInfo, s, slot int, off int64, dst []byte, crcRow []uint32, stats *ReadStats) (sim.Time, error) {
	k, m := r.cfg.DataShards, r.cfg.ParityShards
	coderIdx := r.slots.at(s).coder // physical slot -> coder shard index

	donors, _ := r.donorSlots(at, info, s, slot, off, len(dst))
	if len(donors) < k {
		return at, ErrUnrecoverable
	}
	if off != 0 || len(dst) != r.cfg.WriteUnit {
		crcRow = nil // the CRCs cover whole units
	}

	// Donor buffers are pooled scratch. Every buffer taken, including one
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
	for _, sl := range donors {
		if got == k {
			break
		}
		au := info.AUs[sl]
		scratch := r.takeWU()
		taken = append(taken, scratch)
		buf := (*scratch)[:len(dst)]
		t, err := r.drives[au.Drive].ReadAt(at, buf, au.Offset(r.cfg)+int64(s)*int64(r.cfg.WriteUnit)+off)
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
	raw, done, _, err := r.ReadRange(at, withStripes(info, s+1), int64(s)*int64(r.cfg.StripeDataBytes()), r.cfg.StripeDataBytes(), ReadHome, nil)
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
		d2, rerr := r.reconstruct(done, info, s, slot, 0, buf, crcs[s], stats)
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
