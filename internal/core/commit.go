package core

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// through the system (§4.2); data writes additionally carry their payloads
// so a redo never depends on unflushed segments.
const (
	recFacts byte = 1 // facts for one relation
	recWrite byte = 2 // a data write: facts + cblock payloads
)

// writeChunk is one cblock's worth of a committed write: the address fact,
// any sampled dedup facts, and — for literal (non-deduplicated) chunks —
// the raw sector payload for redo.
type writeChunk struct {
	addr    tuple.Fact
	dedup   []tuple.Fact
	payload []byte // nil for dedup references
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

// encodeWriteRecord frames a recWrite record.
func encodeWriteRecord(chunks []writeChunk) []byte {
	// Size estimate: payload bytes plus a generous per-fact bound, so the
	// record is (almost always) allocated once.
	size := 16
	for _, ch := range chunks {
		size += len(ch.payload) + 96*(1+len(ch.dedup))
	}
	b := append(make([]byte, 0, size), recWrite)
	b = binary.AppendUvarint(b, uint64(len(chunks)))
	for _, ch := range chunks {
		b = tuple.Append(b, relation.AddrsSchema, ch.addr)
		b = tuple.AppendBatch(b, relation.DedupSchema, ch.dedup)
		b = binary.AppendUvarint(b, uint64(len(ch.payload)))
		b = append(b, ch.payload...)
	}
	return b
}

// decodeWriteRecord parses a recWrite record (after the kind byte).
func decodeWriteRecord(b []byte) ([]writeChunk, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("core: short write record")
	}
	pos := n
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
		plen, n := binary.Uvarint(b[pos:])
		if n <= 0 || pos+n+int(plen) > len(b) {
			return nil, errors.New("core: torn write record")
		}
		pos += n
		var payload []byte
		if plen > 0 {
			payload = append([]byte(nil), b[pos:pos+int(plen)]...)
			pos += int(plen)
		}
		chunks = append(chunks, writeChunk{addr: addr, dedup: dd, payload: payload})
	}
	return chunks, nil
}

// nvramAppendLocked appends a record to the NVRAM mirrors from a
// world-exclusive section (catalog mutations, GC, rebuild, and the lane
// commit's log-full fallback). The append under mu IS the commit point
// there: the record must be durable before the lock releases and the op
// acks (§4.1). When the log fills, the engine checkpoints to release it
// and retries once. Caller holds mu.
func (a *Array) nvramAppendLocked(at sim.Time, rec []byte) (sim.Time, error) {
	done, err := a.nvramAppendOnce(at, rec)
	if err == nil {
		return done, nil
	}
	// Checkpointing trims the whole NVRAM log; with a lane commit in flight
	// another write's record may be durable but not yet applied, and
	// trimming it would lose an acked write across a crash. Every caller
	// today holds world exclusively, so the count is zero here; the check
	// keeps a future caller that appends under world.RLock from trimming —
	// it gets the error instead.
	if a.laneInflight.Load() > 0 {
		return done, err
	}
	// Full: flush everything and trim, then retry.
	if done, err = a.checkpointLocked(done); err != nil {
		return done, err
	}
	return a.nvramAppendOnce(done, rec)
}

// nvramAppendOnce mirrors one record to the surviving NVRAM devices; the
// record is durable when the slowest device finishes (§4.1's redundant
// NVRAM). It is the one place a record reaches the mirrors: the group
// committer calls it with no locks held (device I/O never blocks other
// lanes' placement work) and nvramAppendLocked calls it under mu; either
// way one caller at a time, so every mirror sees the same record order.
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
// inserts them into the relation's pyramid. Caller holds mu.
func (a *Array) commitFactsLocked(at sim.Time, relID uint32, facts []tuple.Fact) (sim.Time, error) {
	if len(facts) == 0 {
		return at, nil
	}
	done, err := a.nvramAppendLocked(at, encodeFactsRecord(relID, facts))
	if err != nil {
		return done, err
	}
	if err := a.applyFactsLocked(relID, facts); err != nil {
		return done, err
	}
	a.persistedSeq = a.seqs.Current()
	return done, nil
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
			d, err := p.Flush(done, a.persistedSeq)
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
		d, err := p.Flush(done, a.persistedSeq)
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
	for id, s := range a.openByID {
		s.mu.Lock()
		a.segMap[id] = s.w.Info()
		s.mu.Unlock()
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
