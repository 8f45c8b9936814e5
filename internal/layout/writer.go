package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"purity/internal/crashpoint"
	"purity/internal/erasure"
	"purity/internal/sim"
	"purity/internal/ssd"
	"purity/internal/tuple"
)

// Errors returned by the segment writer.
var (
	ErrSegmentFull     = errors.New("layout: segment full")
	ErrItemTooLarge    = errors.New("layout: item exceeds stripe capacity")
	ErrTooManyFailures = errors.New("layout: more shard failures than parity can absorb")
)

// Writer builds one segment. User data accumulates from the front of the
// current segio and log records from the back; when they meet, the segio is
// parity-encoded and flushed to the drives (Figure 3). The writer is not
// safe for concurrent use; the engine serializes appends per open segment.
type Writer struct {
	cfg    Config
	drives []*ssd.Device
	coder  *erasure.Coder
	slots  slotTable

	info     SegmentInfo
	stripe   []byte   // logical stripe under construction
	dataOff  int      // data fill point (from front)
	logRecs  [][]byte // pending log records for this stripe (framed at flush)
	logBytes int      // framed size of pending log records
	// Per-stripe sequence range for the segio trailer; segment-level range
	// kept in info.
	stripeSeqMin, stripeSeqMax tuple.Seq
	wuCRCs                     [][]uint32
	sealed                     bool
	// shards lists a stripe's write units in coder order, data then
	// parity: the data ones are slices of stripe, the M parity ones this
	// writer's own buffers, made at its first flush and overwritten by
	// every stripe's encode (the drives copy what they are given). bySlot
	// is the same list in the stripe's physical slot order.
	shards, bySlot [][]byte

	// crash, when set, is the fault-point registry for crash-consistency
	// sweeps. Points fire between the durable sub-steps of a flush or seal
	// (after parity encode, after each write wave, after each trailer).
	crash *crashpoint.Registry
}

// SetCrash installs a crash-point registry (nil disables injection).
func (w *Writer) SetCrash(r *crashpoint.Registry) { w.crash = r }

// NewWriter opens a segment across the given AUs (one per shard, len K+M).
func NewWriter(cfg Config, drives []*ssd.Device, coder *erasure.Coder, id SegmentID, aus []AU) (*Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(aus) != cfg.TotalShards() {
		return nil, fmt.Errorf("layout: segment needs %d AUs, got %d", cfg.TotalShards(), len(aus))
	}
	seen := map[int]bool{}
	for _, au := range aus {
		if au.Drive < 0 || au.Drive >= len(drives) {
			return nil, fmt.Errorf("layout: AU on unknown drive %d", au.Drive)
		}
		if seen[au.Drive] {
			return nil, fmt.Errorf("layout: two shards on drive %d", au.Drive)
		}
		seen[au.Drive] = true
	}
	w := &Writer{
		cfg:    cfg,
		drives: drives,
		coder:  coder,
		slots:  newSlotTable(cfg),
		info: SegmentInfo{
			ID:     id,
			AUs:    append([]AU(nil), aus...),
			SeqMin: tuple.MaxSeq,
		},
		stripeSeqMin: tuple.MaxSeq,
	}
	w.stripe = make([]byte, cfg.StripeDataBytes())
	return w, nil
}

// Info returns the segment's current state.
func (w *Writer) Info() SegmentInfo { return w.info }

// stripeFree returns the bytes still available in the current segio.
func (w *Writer) stripeFree() int {
	return w.cfg.StripeCapacity() - w.dataOff - w.logBytes
}

// AppendData adds a blob of user data (a compressed cblock) to the segment
// and returns its segment-logical offset. Items never span segios. The
// returned completion time is `at` unless the append triggered a segio
// flush, in which case it is the flush completion.
func (w *Writer) AppendData(at sim.Time, b []byte) (int64, sim.Time, error) {
	if w.sealed || w.info.Stripes == w.cfg.StripesPerAU {
		return 0, at, ErrSegmentFull
	}
	if len(b) > w.cfg.StripeCapacity() {
		return 0, at, ErrItemTooLarge
	}
	done := at
	if len(b) > w.stripeFree() {
		var err error
		done, err = w.flushStripe(at)
		if err != nil {
			return 0, done, err
		}
		if w.info.Stripes == w.cfg.StripesPerAU {
			return 0, done, ErrSegmentFull
		}
	}
	off := int64(w.info.Stripes)*int64(w.cfg.StripeDataBytes()) + int64(w.dataOff)
	copy(w.stripe[w.dataOff:], b)
	w.dataOff += len(b)
	return off, done, nil
}

// AppendLog adds a metadata log record (an encoded batch of facts covering
// sequence numbers [lo, hi]) to the back of the current segio.
func (w *Writer) AppendLog(at sim.Time, rec []byte, lo, hi tuple.Seq) (sim.Time, error) {
	if w.sealed || w.info.Stripes == w.cfg.StripesPerAU {
		return at, ErrSegmentFull
	}
	framed := len(rec) + binary.MaxVarintLen32
	if framed > w.cfg.StripeCapacity() {
		return at, ErrItemTooLarge
	}
	done := at
	if framed > w.stripeFree() {
		var err error
		done, err = w.flushStripe(at)
		if err != nil {
			return done, err
		}
		if w.info.Stripes == w.cfg.StripesPerAU {
			return done, ErrSegmentFull
		}
	}
	w.logRecs = append(w.logRecs, rec)
	w.logBytes += framed
	if lo < w.stripeSeqMin {
		w.stripeSeqMin = lo
	}
	if hi > w.stripeSeqMax {
		w.stripeSeqMax = hi
	}
	if lo < w.info.SeqMin {
		w.info.SeqMin = lo
	}
	if hi > w.info.SeqMax {
		w.info.SeqMax = hi
	}
	return done, nil
}

// Flush forces the current segio to the drives even if not full. The engine
// calls this on commit-latency deadlines and before sealing.
func (w *Writer) Flush(at sim.Time) (sim.Time, error) {
	if w.dataOff == 0 && len(w.logRecs) == 0 {
		return at, nil
	}
	return w.flushStripe(at)
}

// flushStripe parity-encodes the current segio and writes one write unit to
// each shard's AU. Writes are staggered so at most MaxConcurrentWrites
// drives program simultaneously (§4.4). Up to M shard-write failures are
// tolerated — the segment remains fully readable via reconstruction.
func (w *Writer) flushStripe(at sim.Time) (sim.Time, error) {
	if w.info.Stripes >= w.cfg.StripesPerAU {
		return at, ErrSegmentFull // defensive: a fifth stripe would overwrite the AU trailer
	}
	// Place framed log records just before the trailer.
	trailerOff := len(w.stripe) - segioTrailerSize
	logStart := trailerOff - w.logBytes
	pos := logStart
	for _, rec := range w.logRecs {
		pos += binary.PutUvarint(w.stripe[pos:], uint64(len(rec)))
		pos += copy(w.stripe[pos:], rec)
	}
	// The gap between data and log stays zero; zero both framed-slack and
	// the reserved region deterministically.
	for i := w.dataOff; i < logStart; i++ {
		w.stripe[i] = 0
	}
	for i := pos; i < trailerOff; i++ {
		w.stripe[i] = 0
	}
	putSegioTrailer(w.stripe, segioTrailer{
		DataLen:  uint32(w.dataOff),
		LogStart: uint32(logStart),
		RecCount: uint32(len(w.logRecs)),
		SeqMin:   w.stripeSeqMin,
		SeqMax:   w.stripeSeqMax,
	})

	// Shard the stripe: K data write units plus M parity.
	k, m, wu := w.cfg.DataShards, w.cfg.ParityShards, w.cfg.WriteUnit
	if w.shards == nil {
		w.shards = make([][]byte, k+m)
		for d := 0; d < k; d++ {
			w.shards[d] = w.stripe[d*wu : (d+1)*wu]
		}
		parity := make([]byte, m*wu)
		for j := 0; j < m; j++ {
			w.shards[k+j] = parity[j*wu : (j+1)*wu]
		}
		w.bySlot = make([][]byte, k+m)
	}
	if err := w.coder.Encode(w.shards); err != nil {
		return at, err
	}

	// Map coder order to physical slots for this stripe's parity rotation.
	s := w.info.Stripes
	bySlot := w.bySlot
	for slot, idx := range w.slots.at(s).coder {
		bySlot[slot] = w.shards[idx]
	}

	// Record CRCs for the AU trailer / scrub.
	crcs := make([]uint32, k+m)
	for slot, wu := range bySlot {
		crcs[slot] = crc32.ChecksumIEEE(wu)
	}
	w.wuCRCs = append(w.wuCRCs, crcs)

	// Staggered writes: waves of MaxConcurrentWrites drives.
	w.crash.Hit("layout.flush.encoded")
	wuOff := int64(s) * int64(w.cfg.WriteUnit)
	issue := at
	done := at
	failures := 0
	for base := 0; base < k+m; base += w.cfg.MaxConcurrentWrites {
		waveDone := issue
		for slot := base; slot < base+w.cfg.MaxConcurrentWrites && slot < k+m; slot++ {
			au := w.info.AUs[slot]
			d, err := w.drives[au.Drive].WriteAt(issue, bySlot[slot], au.Offset(w.cfg)+wuOff)
			if err != nil {
				failures++
				if failures > m {
					return done, ErrTooManyFailures
				}
				continue
			}
			if d > waveDone {
				waveDone = d
			}
		}
		issue = waveDone
		done = waveDone
		// A crash here leaves the stripe partially striped across shards:
		// some write units durable, the rest absent. The segment is unsealed
		// (no AU trailer), so recovery must never trust this data.
		w.crash.Hit("layout.flush.wave")
	}

	w.info.Stripes++
	w.dataOff = 0
	w.logRecs = nil
	w.logBytes = 0
	w.stripeSeqMin = tuple.MaxSeq
	w.stripeSeqMax = 0
	for i := range w.stripe {
		w.stripe[i] = 0
	}
	return done, nil
}

// ReadPending serves a read of data that still sits in the in-memory segio
// (not yet flushed). It returns false when the range is not in the current
// buffer — flushed ranges are read through the Reader instead.
func (w *Writer) ReadPending(off int64, n int) ([]byte, bool) {
	stripeStart := int64(w.info.Stripes) * int64(w.cfg.StripeDataBytes())
	if off < stripeStart || off+int64(n) > stripeStart+int64(w.dataOff) {
		return nil, false
	}
	within := off - stripeStart
	return append([]byte(nil), w.stripe[within:within+int64(n)]...), true
}

// Seal flushes any pending segio and writes the AU trailer page to every
// shard, making the segment self-describing. At least one trailer must
// land; fewer is a discovery hazard and returns an error.
func (w *Writer) Seal(at sim.Time) (SegmentInfo, sim.Time, error) {
	if w.sealed {
		return w.info, at, nil
	}
	done := at
	if w.dataOff > 0 || len(w.logRecs) > 0 {
		var err error
		done, err = w.flushStripe(at)
		if err != nil {
			return w.info, done, err
		}
	}
	if w.info.SeqMin == tuple.MaxSeq {
		w.info.SeqMin = 0
	}
	w.crash.Hit("layout.seal.begin")
	landed := 0
	sealDone := done
	for shard, au := range w.info.AUs {
		page, err := marshalAUTrailer(w.cfg, AUTrailer{
			Segment: w.info.ID,
			Shard:   shard,
			Stripes: w.info.Stripes,
			SeqMin:  w.info.SeqMin,
			SeqMax:  w.info.SeqMax,
			AUs:     w.info.AUs,
			WUCRCs:  w.wuCRCs,
		})
		if err != nil {
			return w.info, done, err
		}
		trailerOff := au.Offset(w.cfg) + int64(w.cfg.StripesPerAU)*int64(w.cfg.WriteUnit)
		d, err := w.drives[au.Drive].WriteAt(done, page, trailerOff)
		if err != nil {
			continue
		}
		landed++
		if d > sealDone {
			sealDone = d
		}
		// A crash here leaves the segment sealed on some shards only. One
		// trailer is enough for recovery to rediscover the whole segment.
		w.crash.Hit("layout.seal.trailer")
	}
	if landed == 0 {
		return w.info, sealDone, errors.New("layout: no AU trailer written")
	}
	w.info.Sealed = true
	w.sealed = true
	return w.info, sealDone, nil
}
