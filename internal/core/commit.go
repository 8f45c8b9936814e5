package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"purity/internal/frontier"
	"purity/internal/layout"
	"purity/internal/nvram"
	"purity/internal/pyramid"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// NVRAM record kinds. Commits are expressed as immutable facts flowing
// through the system (§4.2); a data write's record additionally carries the
// packed cblock frame of every chunk it stored — the bytes it appended to
// its segment, after dedup and compression — so a redo never depends on
// unflushed segments and never packs anything again. The log carries the
// least that redoes the write (Blizzard, PAPERS.md): about a third of the
// raw sectors at compress ratio 3.
const (
	recFacts byte = 1 // facts for one relation
	recWrite byte = 2 // a data write: facts + packed cblock frames
)

// writeChunk is one cblock's worth of a committed write: the address fact,
// any sampled dedup facts, and — for literal (non-deduplicated) chunks —
// the packed cblock frame the write appended to its segment, exactly the
// address fact's PhysLen bytes. Replay places that frame again as it is.
type writeChunk struct {
	addr  tuple.Fact
	dedup []tuple.Fact
	frame []byte // nil for dedup references
}

// encodeFactsRecord frames a recFacts record.
func encodeFactsRecord(relID uint32, facts []tuple.Fact) []byte {
	schema, _ := relation.SchemaFor(relID)
	b := []byte{recFacts}
	b = binary.LittleEndian.AppendUint32(b, relID)
	return tuple.AppendBatch(b, schema, facts)
}

// decodeFactsRecord parses a recFacts record (after the kind byte).
func decodeFactsRecord(b []byte) (uint32, []tuple.Fact, error) {
	if len(b) < 4 {
		return 0, nil, errors.New("core: short facts record")
	}
	relID := binary.LittleEndian.Uint32(b)
	schema, ok := relation.SchemaFor(relID)
	if !ok {
		return 0, nil, fmt.Errorf("core: facts record for unknown relation %d", relID)
	}
	facts, _, err := tuple.DecodeBatch(b[4:], schema)
	return relID, facts, err
}

// appendWriteRecord appends a recWrite record to dst.
func appendWriteRecord(dst []byte, chunks []writeChunk) []byte {
	// Size estimate: frame bytes plus a generous per-fact bound, so dst
	// grows (almost always) at most once.
	size := 16
	for _, ch := range chunks {
		size += len(ch.frame) + 96*(1+len(ch.dedup))
	}
	b := append(slices.Grow(dst, size), recWrite)
	b = binary.AppendUvarint(b, uint64(len(chunks)))
	for _, ch := range chunks {
		b = tuple.Append(b, relation.AddrsSchema, ch.addr)
		b = tuple.AppendBatch(b, relation.DedupSchema, ch.dedup)
		b = binary.AppendUvarint(b, uint64(len(ch.frame)))
		b = append(b, ch.frame...)
	}
	return b
}

// decodeWriteRecord parses a recWrite record (after the kind byte). Each
// frame is a slice of b, not a copy: replay's b is already the caller's own
// copy of the record (nvram.Device.Records). A chunk whose frame length is
// not what its address fact says — PhysLen for a literal, nothing for a
// dedup reference — makes the whole record malformed; replay places frames
// without unpacking them, so this is the check that stands between a
// CRC-valid but damaged record and a cblock that reads back short.
func decodeWriteRecord(b []byte) ([]writeChunk, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("core: short write record")
	}
	pos := n
	if count > uint64(len(b)-pos) { // every chunk takes more than a byte
		return nil, errors.New("core: write record chunk count exceeds its length")
	}
	chunks := make([]writeChunk, 0, count)
	for i := uint64(0); i < count; i++ {
		addr, n, err := tuple.Decode(b[pos:], relation.AddrsSchema)
		if err != nil {
			return nil, err
		}
		pos += n
		dd, n, err := tuple.DecodeBatch(b[pos:], relation.DedupSchema)
		if err != nil {
			return nil, err
		}
		pos += n
		flen, n := binary.Uvarint(b[pos:])
		if n <= 0 || flen > uint64(len(b)-pos-n) {
			return nil, errors.New("core: torn write record")
		}
		pos += n
		row := relation.AddrFromFact(addr)
		want := row.PhysLen
		if row.Flags&relation.AddrFlagDedup != 0 {
			want = 0
		}
		if flen != want {
			return nil, fmt.Errorf("core: write record chunk %d has a %d-byte frame, its address fact says %d", i, flen, want)
		}
		var frame []byte
		if flen > 0 {
			frame = b[pos : pos+int(flen) : pos+int(flen)]
			pos += int(flen)
		}
		chunks = append(chunks, writeChunk{addr: addr, dedup: dd, frame: frame})
	}
	return chunks, nil
}

// nvramAppend appends one record durably to all surviving NVRAM mirrors —
// the commit point of every op — one record at a time under nvAppendMu, so
// every mirror holds the records in the same order (replay trusts the
// surviving device with the longest log, which is only safe if the logs
// agree). ln is the lane a write's wait is counted on: a lane commit that
// finds another append in progress counts a queue wait. An exclusive
// record (commitExclusiveLocked) passes nil. The mutex is released on the
// straight line, not deferred: a crashpoint panic inside the append leaves
// later appends blocked, so no record lands after a simulated power loss.
func (a *Array) nvramAppend(at sim.Time, ln *commitLane, rec []byte) (sim.Time, error) {
	if !a.nvAppendMu.TryLock() {
		if ln != nil {
			ln.queueWaits.Add(1)
		}
		a.nvAppendMu.Lock()
	}
	done, err := a.nvramAppendOnce(at, rec)
	a.nvAppendMu.Unlock()
	return done, err
}

// nvramAppendOnce mirrors one record to the surviving NVRAM devices; the
// record is durable when the slowest device finishes (§4.1's redundant
// NVRAM). It is the one place a record reaches the mirrors, and
// nvramAppend, holding nvAppendMu, is its one caller. A lane write holds
// world shared here and no other lock (device I/O never blocks other
// lanes' placement work); an exclusive record's caller holds world
// exclusively and mu (commitExclusiveLocked).
func (a *Array) nvramAppendOnce(at sim.Time, rec []byte) (sim.Time, error) {
	done := at
	// A crash here loses the record entirely: the op was never acked.
	a.crash.Hit("nvram.append.before")
	landed := 0
	for i := 0; i < a.shelf.NumNVRAM(); i++ {
		nv := a.shelf.NVRAM(i)
		if nv.Failed() {
			// A dead mirror degrades redundancy but must not block commits
			// (§4.1: the pair exists so one can die). Replay selects a
			// surviving device.
			continue
		}
		_, d, err := nv.Append(at, rec)
		if err != nil {
			if errors.Is(err, nvram.ErrFailed) {
				continue
			}
			return done, err
		}
		landed++
		if d > done {
			done = d
		}
		// A crash here leaves the record on a prefix of the mirrors; replay
		// reads the surviving device with the longest log, which has it.
		a.crash.Hit("nvram.append.mirror")
	}
	if landed == 0 {
		return done, nvram.ErrFailed
	}
	// The torn/corrupt points fire with the record fully appended; the sweep
	// harness recognizes them by name and applies Device.TornTail /
	// CorruptTail to every NVRAM device before reopening, so replay sees the
	// record's bytes damaged rather than absent.
	a.crash.Hit("nvram.append.torn")
	a.crash.Hit("nvram.append.corrupt")
	a.crash.Hit("nvram.append.after")
	return done, nil
}

// commitFactsLocked persists facts for one relation through NVRAM and
// inserts them into the relation's pyramid, in records of at most 512 facts
// (so a GC or dedup batch never outgrows a small log), each applied after
// its own append. Caller holds mu and the world lock exclusively.
func (a *Array) commitFactsLocked(at sim.Time, relID uint32, facts []tuple.Fact) (sim.Time, error) {
	done := at
	for len(facts) > 0 {
		batch := facts[:min(len(facts), 512)]
		facts = facts[len(batch):]
		var err error
		if done, err = a.commitExclusiveLocked(done, encodeFactsRecord(relID, batch)); err != nil {
			return done, err
		}
		if err = a.applyFactsLocked(relID, batch); err != nil {
			return done, err
		}
		a.persistedSeq = a.seqs.Current()
	}
	return done, nil
}

// commitExclusiveLocked commits one record from a world-exclusive section;
// it finds nvAppendMu free, as every lane commit holds world shared until
// its own append is done. It is the one log-full fallback: on a failed
// append it checkpoints and retries once. The checkpoint trims the whole
// log, so if world can be read-locked (the caller does not hold it
// exclusively; TryRLock also fails while a writer waits, so this catches a
// wrong caller, it is not the lock) it returns the error instead. Caller
// holds mu and the world lock exclusively.
func (a *Array) commitExclusiveLocked(at sim.Time, rec []byte) (sim.Time, error) {
	done, err := a.nvramAppend(at, nil, rec)
	if err == nil {
		return done, nil
	}
	if a.world.TryRLock() {
		a.world.RUnlock()
		return done, err
	}
	if done, err = a.checkpointLocked(done); err != nil {
		return done, err
	}
	return a.nvramAppend(done, nil, rec)
}

// applyFactsLocked inserts facts into a pyramid, materializing elide
// predicates into their in-memory tables as a side effect. Used by both
// the commit path and NVRAM replay; replay treats a SchemaError as a
// malformed record and rejects it rather than aborting recovery. Caller
// holds mu.
func (a *Array) applyFactsLocked(relID uint32, facts []tuple.Fact) error {
	if err := a.pyr[relID].Insert(facts); err != nil {
		return err
	}
	if relID == relation.IDElide {
		for _, f := range facts {
			a.applyElideFact(f)
		}
	}
	return nil
}

// maybeBackgroundLocked runs periodic maintenance: pyramid flushes once
// memtables grow, merges toward the patch target, and periodic full
// checkpoints. Runs after every client op. Caller holds mu.
func (a *Array) maybeBackgroundLocked(at sim.Time) (sim.Time, error) {
	a.opsSinceBG++
	if a.opsSinceBG < a.cfg.BackgroundEvery {
		return at, nil
	}
	a.opsSinceBG = 0
	return a.backgroundStepLocked(at)
}

// backgroundStepLocked is one background maintenance step: pyramid flushes
// and merges, plus the periodic full checkpoint. Split from the cadence
// counter so the write path (which counts ops under brief mu sections and
// escalates to the exclusive world lock) can run the step without
// double-counting. Caller holds mu.
func (a *Array) backgroundStepLocked(at sim.Time) (sim.Time, error) {
	done := at
	for _, id := range a.relationIDs() {
		p := a.pyr[id]
		if p.MemRows() >= a.cfg.MemtableFlushRows {
			d, err := p.Flush(done, tuple.Seq(a.persistedSeq))
			if err != nil {
				return d, err
			}
			done = d
		}
		d, err := p.Maintain(done, a.cfg.MaxPatches)
		if err != nil {
			return d, err
		}
		done = d
	}
	a.bgSinceCkpt++
	if a.bgSinceCkpt >= a.cfg.CheckpointEvery {
		a.bgSinceCkpt = 0
		return a.checkpointLocked(done)
	}
	return done, nil
}

// checkpointLocked makes everything durable and trims the NVRAM log: data
// segios flush, pyramids flush and merge, the boot record is rewritten, and
// the whole NVRAM log is released (Figure 4's "trims the DRAM and NVRAM").
// Caller holds mu.
func (a *Array) checkpointLocked(at sim.Time) (sim.Time, error) {
	// A write's apply does not move the flush watermark; it advances only
	// here and at the other world-exclusive points, where no lane commit is
	// in flight: every sequence number issued so far whose facts reached a
	// pyramid is durable in NVRAM (append precedes apply), and abandoned
	// numbers from failed writes are harmless holes.
	//lint:ignore commitorder world-exclusive point with no lane commit in flight: every issued seq whose facts were applied had its record appended by the lane drain first, so the watermark claims nothing the log does not hold
	a.persistedSeq = a.seqs.Current()
	a.crash.Hit("ckpt.begin")
	// 1. Data durability: flush open segios of data-bearing classes.
	done, err := a.flushOpenSegiosLocked(at)
	if err != nil {
		return done, err
	}
	a.crash.Hit("ckpt.data-flushed")
	// 2. Index durability: flush every pyramid through the watermark, then
	// merge toward the patch target.
	for _, id := range a.relationIDs() {
		p := a.pyr[id]
		d, err := p.Flush(done, tuple.Seq(a.persistedSeq))
		if err != nil {
			return d, err
		}
		done = d
		if d, err = p.Maintain(done, a.cfg.MaxPatches); err != nil {
			return d, err
		}
		done = d
	}
	// 3. The meta segio gained pages and descriptors in step 2: flush it.
	if done, err = a.flushOpenSegiosLocked(done); err != nil {
		return done, err
	}
	a.crash.Hit("ckpt.meta-flushed")
	// 4. Boot record.
	d, err := a.writeCheckpoint(done, false)
	if err != nil {
		return d, err
	}
	done = d
	// A crash here has the new checkpoint durable but NVRAM untrimmed;
	// replaying the whole log against it must be harmless (set union).
	a.crash.Hit("ckpt.boot-written")
	// 5. Everything referenced by the checkpoint is durable: release NVRAM.
	// Failed devices are skipped — their stale log is superseded by the
	// checkpoint, and replay never selects a failed device.
	for i := 0; i < a.shelf.NumNVRAM(); i++ {
		nv := a.shelf.NVRAM(i)
		if nv.Failed() {
			continue
		}
		if err := nv.Release(nv.Head()); err != nil {
			return done, err
		}
	}
	a.crash.Hit("ckpt.released")
	a.stats.Checkpoints++
	return done, nil
}

// flushOpenSegiosLocked flushes every open segio so everything written to
// segments so far is durable. Caller holds mu.
func (a *Array) flushOpenSegiosLocked(at sim.Time) (sim.Time, error) {
	done := at
	for i := range a.slots {
		s := &a.slots[i]
		var err error
		s.mu.Lock()
		if s.w != nil {
			done, err = s.w.Flush(done)
		}
		s.mu.Unlock()
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// writeFrontierLocked persists a lightweight checkpoint so a just-refilled
// frontier is durable before the allocator hands out its AUs. It skips the
// pyramid flushing and NVRAM trim of a full checkpoint — recovery still has
// NVRAM — but it must flush open segios first: the checkpoint's patch
// catalogs reference pages that would otherwise be sitting in an unflushed
// segio, and a crash would leave those patches dangling. Caller holds mu.
func (a *Array) writeFrontierLocked(at sim.Time) (sim.Time, error) {
	done, err := a.flushOpenSegiosLocked(at)
	if err != nil {
		return done, err
	}
	// A crash here loses the refilled frontier: the allocator never handed
	// out its AUs, so the stale persisted frontier still bounds the scan.
	a.crash.Hit("frontier.write.flushed")
	if done, err = a.writeCheckpoint(done, false); err != nil {
		return done, err
	}
	a.stats.FrontierWrites++
	return done, nil
}

// writeCheckpoint serializes current state into the boot region. The
// frontier is topped up first, so the persisted record always carries a
// forward allocation window (the paper's speculative sets exist for the
// same reason: fewer boot-region rewrites).
func (a *Array) writeCheckpoint(at sim.Time, genesis bool) (sim.Time, error) {
	if n := a.alloc.FrontierSize(); n < a.cfg.FrontierBatch/2 || genesis {
		a.alloc.RefillFrontier(a.cfg.FrontierBatch - n)
	}
	if a.alloc.SpeculativeSize() == 0 {
		a.alloc.RefillSpeculative(a.cfg.FrontierBatch)
	}
	a.epoch++
	ckpt := &frontier.Checkpoint{
		Epoch:        a.epoch,
		SeqWatermark: a.persistedSeq,
		NextMedium:   a.nextMedium,
		NextVolume:   a.nextVolume,
		NextSegment:  a.nextSegment,
		Frontier:     a.alloc.Frontier(),
		Speculative:  a.alloc.Speculative(),
	}
	// The one place open segments' entries are refreshed: the persisted map
	// must carry their current stripe counts.
	for id, ref := range a.openByID {
		ref.slot.mu.Lock()
		info := ref.w.Info()
		ref.slot.mu.Unlock()
		a.segMu.Lock()
		a.segMap[id] = info
		a.segMu.Unlock()
	}
	// Fixed ID order keeps checkpoints byte-for-byte deterministic.
	segIDs := make([]layout.SegmentID, 0, len(a.segMap))
	for id := range a.segMap {
		segIDs = append(segIDs, id)
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	for _, id := range segIDs {
		ckpt.Segments = append(ckpt.Segments, a.segMap[id])
	}
	for _, relID := range a.relationIDs() {
		for _, patch := range a.pyr[relID].Patches() {
			ckpt.Patches = append(ckpt.Patches, pyramid.MarshalPatch(relID, patch))
		}
	}
	return a.boot.Write(at, ckpt)
}
