package core

import (
	"fmt"
	"sync"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/telemetry"
	"purity/internal/tuple"
)

// Commit lanes (DESIGN.md, "Write path").
//
// The commit half of a write does not run under the global engine mutex.
// Each write routes to one of Config.CommitLanes lanes by volume; the lane
// places literal cblocks into its own open data segment (under the lane
// mutex only, on the fast path), allocates sequence numbers from the
// shared atomic SeqSource, and funnels its NVRAM record through a batching
// committer that preserves the append-before-apply durability ordering the
// crash sweep checks. One lane is simply the case where every volume
// routes to lane 0. The paper's logical monotonicity is what makes this
// safe: facts are immutable and commutative (§3.2), so two writes' facts
// interleave freely as long as each one's record is durable before its
// pyramid apply, and replay remains a set union.
//
// Lock order: a.world (R or W) → a.mu → the slot mutex (declared at
// openSeg). Lane commits hold the world lock in read mode for their whole
// critical section; maintenance entry points (GC, scrub, rebuild,
// checkpoint, volume mutations) take it in write mode, so when one runs, no
// lane commit is in flight.

// commitLane is one shard of the commit path: the slot of its open data
// segment and contention-observability counters (all atomic, readable
// without any lock).
type commitLane struct {
	id   int
	slot *openSeg

	// commits counts writes committed through this lane; batchesLed and
	// batchRecords describe the NVRAM group commits this lane led;
	// queueWaits counts commits that parked behind another lane's leader;
	// seqInterleaves counts commits whose sequence-number span contained
	// another commit's allocations (allocator pressure — the shared
	// SeqSource is wait-free, so interleaving, not stalling, is the
	// observable). Segment seals due to fill are slot.rotations.
	commits        *telemetry.Counter
	batchesLed     *telemetry.Counter
	batchRecords   *telemetry.Counter
	queueWaits     *telemetry.Counter
	seqInterleaves *telemetry.Counter
}

func newCommitLane(id int, slot *openSeg) *commitLane {
	return &commitLane{
		id:             id,
		slot:           slot,
		commits:        telemetry.NewCounter(),
		batchesLed:     telemetry.NewCounter(),
		batchRecords:   telemetry.NewCounter(),
		queueWaits:     telemetry.NewCounter(),
		seqInterleaves: telemetry.NewCounter(),
	}
}

// laneFor routes a volume to its lane. Volume IDs are dense and
// monotonically assigned, so modulo spreads them evenly; one volume always
// maps to one lane, so a volume's commits keep their issue order.
func (a *Array) laneFor(vol VolumeID) *commitLane {
	return a.lanes[uint64(vol)%uint64(len(a.lanes))]
}

// --- Batching NVRAM committer -----------------------------------------

// nvTicket is one record waiting for the group commit.
type nvTicket struct {
	rec  []byte
	at   sim.Time
	done chan struct{}
	when sim.Time
	err  error
}

// nvCommitter funnels all lanes' NVRAM appends through a single leader at
// a time, so the mirrors see every record in one total order (replay picks
// the surviving device with the longest log — identical order on every
// mirror is what makes that choice safe). The first arrival while no
// leader is active becomes the leader and drains the queue in batches;
// later arrivals enqueue and wait. Device I/O runs with no locks held, so
// lanes keep preparing and placing while a batch is in flight.
type nvCommitter struct {
	a        *Array
	mu       sync.Mutex
	queue    []*nvTicket
	leading  bool
	maxDepth int64
}

// commit appends one record durably to all surviving NVRAM mirrors,
// batching with concurrent callers. It returns when this record is
// durable — the commit point of a lane write.
func (c *nvCommitter) commit(at sim.Time, ln *commitLane, rec []byte) (sim.Time, error) {
	t := &nvTicket{rec: rec, at: at, done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, t)
	if depth := int64(len(c.queue)); depth > c.maxDepth {
		c.maxDepth = depth
	}
	if c.leading {
		c.mu.Unlock()
		ln.queueWaits.Inc()
		<-t.done
		return t.when, t.err
	}
	c.leading = true
	c.mu.Unlock()

	for {
		c.mu.Lock()
		batch := c.queue
		c.queue = nil
		if len(batch) == 0 {
			c.leading = false
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		ln.batchesLed.Inc()
		ln.batchRecords.Add(int64(len(batch)))
		for _, tk := range batch {
			tk.when, tk.err = c.a.nvramAppendOnce(tk.at, tk.rec)
			close(tk.done)
		}
	}
	return t.when, t.err
}

// --- Lane commit path ---------------------------------------------------

// commitWriteLane is the commit half of a write. The whole commit runs
// under the world lock in read mode; the engine mutex is taken only for the
// brief sections that genuinely share state across lanes (volume lookup,
// dedup candidate search, segment allocation, fact application), and the
// lane mutex covers the lane's own open segment.
func (a *Array) commitWriteLane(at sim.Time, vol VolumeID, off int64, data []byte, prep []preparedExtent) (sim.Time, error) {
	ln := a.laneFor(vol)
	a.world.RLock()
	// Every exit below decrements the in-flight count BEFORE releasing the
	// read lock, so a writer that then acquires world exclusively observes
	// zero lane commits in flight (nvramAppendLocked's checkpoint gate).
	a.laneInflight.Add(1)

	a.mu.Lock()
	row, done, err := a.volumeLocked(at, vol)
	if err == nil && row.State == relation.VolumeSnapshot {
		err = fmt.Errorf("core: volume %d is a read-only snapshot", vol)
	}
	startSector := uint64(off) / cblock.SectorSize
	if err == nil && startSector+uint64(len(data))/cblock.SectorSize > row.SizeSectors {
		err = ErrOutOfRange
	}
	a.mu.Unlock()
	if err != nil {
		a.laneInflight.Add(-1)
		a.world.RUnlock()
		return done, err
	}

	seqStart := a.seqs.Current()

	// Placement never appends to NVRAM (segment allocation and sealing
	// insert their facts directly; recovery re-derives them from the
	// frontier and AU trailers), so a full log can only surface at the
	// commit point below.
	w := laneWrite{at: at, size: int64(len(data)), live: map[layout.SegmentID]int64{}}
	var allocated uint64
	for i := range prep {
		cs, n, d, err := a.placeCBlockLane(done, ln, row.Medium, startSector, prep[i:], w.live)
		done = d
		allocated += n
		if err != nil {
			a.laneInflight.Add(-1)
			a.world.RUnlock()
			return done, err
		}
		for _, ch := range cs {
			w.chunks = append(w.chunks, ch)
			if ch.frame != nil {
				w.physical += int64(relation.AddrFromFact(ch.addr).PhysLen)
			} else {
				w.deduped += int64(relation.AddrFromFact(ch.addr).Sectors) * cblock.SectorSize
			}
		}
	}
	if uint64(a.seqs.Current()-seqStart) > allocated {
		ln.seqInterleaves.Inc()
	}

	// Commit point: the batched NVRAM append. Any error escalates to the
	// exclusive path, which can checkpoint to free log space — safe to take
	// the world lock there because we have fully released it here.
	rec := encodeWriteRecord(w.chunks)
	done2, err := a.committer.commit(done, ln, rec)
	if err != nil {
		a.laneInflight.Add(-1)
		a.world.RUnlock()
		return a.laneCommitExclusive(done, ln, rec, w)
	}
	done = done2
	ln.commits.Inc()

	// The write is durable in NVRAM but not yet applied to the pyramids. A
	// crash in this window must be recovered by replay; the crash sweep arms
	// this point at every lane count it runs.
	a.crash.Hit("lane.apply.before")

	a.mu.Lock()
	ackAt, err := a.laneApplyLocked(done, w)
	needBG := false
	if err == nil {
		a.opsSinceBG++
		needBG = a.opsSinceBG >= a.cfg.BackgroundEvery
	}
	a.mu.Unlock()
	a.laneInflight.Add(-1)
	a.world.RUnlock()
	if err != nil {
		return ackAt, err
	}
	if needBG {
		if _, err := a.laneBackground(done); err != nil {
			return ackAt, err
		}
	}
	return ackAt, nil
}

// laneWrite is one write between placement and apply: its chunks, the
// per-segment live-byte deltas its literal chunks added, and what the
// stats need once it is acknowledged.
type laneWrite struct {
	at                sim.Time
	size              int64
	chunks            []writeChunk
	live              map[layout.SegmentID]int64
	physical, deduped int64
}

// laneApplyLocked acknowledges a committed write: it charges the op's CPU
// cost, applies the facts, folds the per-segment live-byte deltas into the
// shared accounting, and records the stats. done is when the write's
// record became durable. persistedSeq is NOT advanced here — only
// world-exclusive points move the watermark, when no lane commit is in
// flight (see checkpointLocked). Caller holds mu.
func (a *Array) laneApplyLocked(done sim.Time, w laneWrite) (sim.Time, error) {
	cpuCost := sim.Time(a.cfg.CPUOverhead + a.cfg.CPUPerKiBWrite*w.size/1024)
	ackAt := a.cpuLocked(done, cpuCost)
	for _, ch := range w.chunks {
		if err := a.applyFactsLocked(relation.IDAddrs, []tuple.Fact{ch.addr}); err != nil {
			return ackAt, err
		}
		if len(ch.dedup) > 0 {
			if err := a.applyFactsLocked(relation.IDDedup, ch.dedup); err != nil {
				return ackAt, err
			}
		}
	}
	for seg, delta := range w.live {
		a.liveBytes[seg] += delta
	}
	a.stats.Writes++
	a.stats.WriteLatency.Record(ackAt - w.at)
	a.stats.Reduction.AddWrite(w.size, w.physical, w.deduped)
	return ackAt, nil
}

// laneCommitExclusive finishes a lane write whose batched NVRAM append
// failed (typically ErrFull). Called with NO locks held; it takes the
// world lock exclusively — every lane commit is quiesced, so
// nvramAppendLocked may checkpoint to free the log (flushing lane segios
// in the process) without trimming a record another lane has yet to apply.
func (a *Array) laneCommitExclusive(done sim.Time, ln *commitLane, rec []byte, w laneWrite) (sim.Time, error) {
	a.world.Lock()
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.world.Unlock()
	done, err := a.nvramAppendLocked(done, rec)
	if err != nil {
		return done, err
	}
	ln.commits.Inc()
	ackAt, err := a.laneApplyLocked(done, w)
	if err != nil {
		return ackAt, err
	}
	if _, err := a.maybeBackgroundLocked(done); err != nil {
		return ackAt, err
	}
	return ackAt, nil
}

// laneBackground runs the background step after a lane commit crossed the
// cadence threshold. It re-checks under the exclusive world lock: several
// lanes may cross the threshold concurrently, and only the first to get
// here should run the step.
func (a *Array) laneBackground(at sim.Time) (sim.Time, error) {
	a.world.Lock()
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.world.Unlock()
	if a.opsSinceBG < a.cfg.BackgroundEvery {
		return at, nil
	}
	a.opsSinceBG = 0
	// World-exclusive point: safe to advance the flush watermark.
	a.persistedSeq = a.seqs.Current()
	return a.backgroundStepLocked(at)
}

// placeCBlockLane turns the first prepared extent of rest — the extents of
// a write not yet placed — into chunks, in §4.7's order: search for a
// duplicate, then pack and append only what is stored. A hit yields a
// deduplicated run referencing existing data plus the literal remainders,
// packed as they are placed; a miss yields the whole extent as one literal,
// and the first miss of a write packs every extent of rest at once
// (packExtents). The dedup candidate search runs under the engine mutex (it
// reads the pyramids and sealed segments), packing under no lock, literal
// placement under the slot mutex. Live-byte deltas accumulate in live to be
// applied after the commit point. startSector is the write's first sector.
// Returns the chunks and how many sequence numbers were allocated.
func (a *Array) placeCBlockLane(at sim.Time, ln *commitLane, medium, startSector uint64, rest []preparedExtent, live map[layout.SegmentID]int64) ([]writeChunk, uint64, sim.Time, error) {
	done := at
	pe := &rest[0]
	sector := startSector + pe.sectorOff
	sectors := len(pe.part) / cblock.SectorSize
	var chunks []writeChunk
	var allocated uint64
	// literal places sectors [lo, hi) of the extent as new data. frame is
	// the whole extent's frame, or nil for a dedup hit's remainder, which
	// laneLiteralChunk packs.
	literal := func(lo, hi int, frame []byte) error {
		if lo == hi {
			return nil
		}
		ch, n, err := a.laneLiteralChunk(done, ln, medium, sector+uint64(lo),
			pe.part[lo*cblock.SectorSize:hi*cblock.SectorSize], frame, pe.hashes[lo:hi], live)
		allocated += n
		if err != nil {
			return err
		}
		chunks = append(chunks, ch)
		return nil
	}
	if a.cfg.DedupEnabled {
		a.mu.Lock()
		run, d, found := a.findDuplicateLocked(done, pe.part, pe.hashes)
		done = d
		hit := found && (run.Count >= a.cfg.DedupMinRunBlocks || run.Count == sectors)
		if hit {
			a.stats.DedupHits++
			a.stats.InlineDupBlocks += int64(run.Count)
		} else {
			a.stats.DedupMisses++
		}
		a.mu.Unlock()
		if hit {
			if err := literal(0, run.Start, nil); err != nil {
				return nil, allocated, done, err
			}
			// The duplicate run: a mapping into existing data, no new bytes.
			chunks = append(chunks, writeChunk{addr: relation.AddrRow{
				Medium:  medium,
				Sector:  sector + uint64(run.Start),
				Segment: run.Cand.Segment,
				SegOff:  run.Cand.SegOff,
				PhysLen: run.Cand.PhysLen,
				Inner:   uint64(run.CandStart),
				Sectors: uint64(run.Count),
				Flags:   relation.AddrFlagDedup,
			}.Fact(a.seqs.Next())})
			allocated++
			if err := literal(run.Start+run.Count, sectors, nil); err != nil {
				return nil, allocated, done, err
			}
			return chunks, allocated, done, nil
		}
	}
	if pe.frame == nil {
		if err := a.packExtents(rest); err != nil {
			return nil, allocated, done, err
		}
	}
	if err := literal(0, sectors, pe.frame); err != nil {
		return nil, allocated, done, err
	}
	return chunks, allocated, done, nil
}

// laneLiteralChunk places new data into the lane's segment, producing its
// address fact and sampled dedup facts. frame is the packed cblock for part,
// or nil for a dedup hit's remainder, which is packed here, with no lock
// held; hashes are part's per-block hashes, computed exactly once per extent
// in prepareWrite and threaded through. Returns the chunk, which carries
// frame into the write's NVRAM record, and how many sequence numbers it
// allocated.
func (a *Array) laneLiteralChunk(at sim.Time, ln *commitLane, medium, sector uint64, part, frame []byte, hashes []uint64, live map[layout.SegmentID]int64) (writeChunk, uint64, error) {
	if frame == nil {
		var err error
		a.stats.PackedBytes.Add(int64(len(part)))
		frame, err = cblock.Pack(part, a.cfg.CompressionEnabled)
		if err != nil {
			return writeChunk{}, 0, err
		}
	}
	// The segio append may trigger a flush; its completion time advances
	// the drives' busy state but must not gate this write's acknowledgement
	// — the commit path acks at NVRAM persistence (Figure 4), and the segio
	// write-back is asynchronous.
	seg, segOff, _, err := a.laneAppendData(at, ln, frame)
	if err != nil {
		return writeChunk{}, 0, err
	}
	ch := writeChunk{
		addr: relation.AddrRow{
			Medium: medium, Sector: sector,
			Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)),
			Sectors: uint64(len(part)) / cblock.SectorSize,
		}.Fact(a.seqs.Next()),
		frame: frame,
	}
	allocated := uint64(1)
	live[seg] += int64(len(frame))

	// Record a sample of the block hashes persistently, everything recently.
	for i, h := range hashes {
		cand := dedup.Candidate{Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)), SectorIdx: uint64(i)}
		a.recent.Add(h, cand)
		if a.cfg.DedupEnabled && dedup.ShouldRecord(i, a.cfg.DedupSampling) {
			ch.dedup = append(ch.dedup, relation.DedupRow{
				Hash: h, Segment: cand.Segment, SegOff: cand.SegOff,
				PhysLen: cand.PhysLen, SectorIdx: cand.SectorIdx,
			}.Fact(a.seqs.Next()))
			allocated++
		}
	}
	return ch, allocated, nil
}

// laneAppendData appends a blob to the lane's open segment. Per-lane open
// segments are the down payment on multi-stream placement: each lane's
// writes stay physically clustered, so data written together dies together
// (ROADMAP item 5). The fast path holds only the slot mutex; an empty or
// full slot goes through slotAppendLocked under a.mu, so a rotating lane
// briefly contends with the others.
func (a *Array) laneAppendData(at sim.Time, ln *commitLane, b []byte) (layout.SegmentID, int64, sim.Time, error) {
	s := ln.slot
	s.mu.Lock()
	if w := s.w; w != nil {
		off, done, err := w.AppendData(at, b)
		if err == nil {
			id := w.Info().ID
			s.mu.Unlock()
			return id, off, done, nil
		}
		if err != layout.ErrSegmentFull {
			s.mu.Unlock()
			return 0, 0, done, err
		}
		at = done
	}
	s.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.slotAppendLocked(at, s, segItem{b: b})
}

// sealOpenLocked seals every open segment — the checkpoint-grade quiesce of
// FlushAll and drive replacement. Caller holds mu and the world lock
// exclusively, so no commit is in flight.
func (a *Array) sealOpenLocked(at sim.Time) (sim.Time, error) {
	done := at
	for i := range a.slots {
		d, err := a.sealSlotLocked(done, &a.slots[i])
		if err != nil {
			return d, err
		}
		done = d
	}
	return done, nil
}

// --- Per-lane telemetry -------------------------------------------------

// LaneStat is one lane's counter snapshot.
type LaneStat struct {
	Lane           int
	Commits        int64
	BatchesLed     int64
	BatchRecords   int64
	QueueWaits     int64
	SeqInterleaves int64
	Rotations      int64
}

// LaneStats is the commit-lane observability snapshot: per-lane counters
// plus the committer's high-water queue depth.
type LaneStats struct {
	Lanes         []LaneStat
	MaxQueueDepth int64
}

// LaneTelemetry snapshots the lane counters.
func (a *Array) LaneTelemetry() LaneStats {
	var out LaneStats
	for _, ln := range a.lanes {
		out.Lanes = append(out.Lanes, LaneStat{
			Lane:           ln.id,
			Commits:        ln.commits.Load(),
			BatchesLed:     ln.batchesLed.Load(),
			BatchRecords:   ln.batchRecords.Load(),
			QueueWaits:     ln.queueWaits.Load(),
			SeqInterleaves: ln.seqInterleaves.Load(),
			Rotations:      ln.slot.rotations.Load(),
		})
	}
	a.committer.mu.Lock()
	out.MaxQueueDepth = a.committer.maxDepth
	a.committer.mu.Unlock()
	return out
}
