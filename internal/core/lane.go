package core

import (
	"fmt"
	"sync/atomic"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/nvram"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// Commit lanes (DESIGN.md, "Write path").
//
// The commit half of a write does not run under the global engine mutex.
// Each write routes to one of Config.CommitLanes lanes by volume; the lane
// places literal cblocks into its own open data segment (under the lane
// mutex only, on the fast path), allocates sequence numbers from the
// shared atomic SeqSource, and appends its NVRAM record through
// nvramAppend — every record's one path to NVRAM, one append at a time —
// before it applies, the durability ordering the crash sweep checks. One
// lane is simply the case where every volume routes to lane 0. The paper's
// logical monotonicity is what makes this safe: facts are immutable and
// commutative (§3.2), so two writes' facts interleave freely as long as
// each one's record is durable before its pyramid apply, and replay
// remains a set union.
//
// Lock order: a.world (R or W) → a.mu → the slot mutex (declared at
// openSeg); a.nvAppendMu is taken last and holds only the storage leaves.
// Lane commits hold the world lock in read mode for their whole critical
// section; maintenance entry points (GC, scrub, rebuild, checkpoint,
// volume mutations) take it in write mode, so when one runs, no lane
// commit is in flight and its records find the append mutex free.

// commitLane is one shard of the commit path: the slot of its open data
// segment and contention-observability counters (all atomic, readable
// without any lock).
type commitLane struct {
	id   int
	slot *openSeg

	// commits counts writes committed through this lane; queueWaits
	// counts commits that found another record's NVRAM append in progress;
	// seqInterleaves counts commits whose sequence-number span contained
	// another commit's allocations (allocator pressure — the shared
	// SeqSource is wait-free, so interleaving, not stalling, is the
	// observable). Segment seals due to fill are slot.rotations.
	commits        atomic.Int64
	queueWaits     atomic.Int64
	seqInterleaves atomic.Int64
}

// laneFor routes a volume to its lane. Volume IDs are dense and
// monotonically assigned, so modulo spreads them evenly; one volume always
// maps to one lane, so a volume's commits keep their issue order.
func (a *Array) laneFor(vol VolumeID) *commitLane {
	return a.lanes[uint64(vol)%uint64(len(a.lanes))]
}

// --- Lane commit path ---------------------------------------------------

// commitWriteLane is the commit half of the write prepared into sc, which
// the caller owns and puts back (writeScratch). The whole commit runs
// under the world lock in read mode, which also settles the volume row
// and keeps what the dedup candidate search reads from changing under it;
// the engine mutex is taken only for the brief sections that genuinely
// share state across lanes (segment allocation, fact application), and
// the lane mutex covers the lane's own open segment.
func (a *Array) commitWriteLane(sc *writeScratch, at sim.Time, vol VolumeID, off int64, data []byte) (sim.Time, error) {
	ln := a.laneFor(vol)
	a.world.RLock()

	row, done, err := a.volume(at, vol)
	if err == nil && row.State == relation.VolumeSnapshot {
		err = fmt.Errorf("core: volume %d is a read-only snapshot", vol)
	}
	startSector := uint64(off) / cblock.SectorSize
	if err == nil && startSector+uint64(len(data))/cblock.SectorSize > row.SizeSectors {
		err = ErrOutOfRange
	}
	if err != nil {
		a.world.RUnlock()
		return done, err
	}

	seqStart := a.seqs.Current()

	// Placement never appends to NVRAM (segment allocation and sealing
	// make no facts; recovery re-derives the segment table from the
	// checkpoint's segment map and the AU trailers), so a full log can
	// only surface at the commit point below.
	w := &sc.w
	w.at, w.size = at, int64(len(data))
	var allocated uint64
	for i := range sc.prep {
		n, d, err := a.placeCBlockLane(done, ln, row.Medium, startSector, &sc.prep[i], sc)
		done = d
		allocated += n
		if err != nil {
			a.world.RUnlock()
			return done, err
		}
	}
	for _, ch := range w.chunks {
		if ch.frame != nil {
			w.physical += int64(relation.AddrFromFact(ch.addr).PhysLen)
		} else {
			w.deduped += int64(relation.AddrFromFact(ch.addr).Sectors) * cblock.SectorSize
		}
	}
	if uint64(a.seqs.Current()-seqStart) > allocated {
		ln.seqInterleaves.Add(1)
	}

	// Commit point: the NVRAM append. Any error escalates to the exclusive
	// path, which can checkpoint to free log space — safe to take the world
	// lock there because we have fully released it here.
	sc.rec = appendWriteRecord(sc.rec[:0], w.chunks)
	rc, done2, err := a.nvramAppend(done, ln, sc.rec)
	if err != nil {
		a.world.RUnlock()
		return a.laneCommitExclusive(done, ln, sc)
	}
	done = done2
	ln.commits.Add(1)

	// The write is durable in NVRAM but not yet applied to the pyramids. A
	// crash in this window must be recovered by replay; the crash sweep arms
	// this point at every lane count it runs.
	a.crash.Hit("lane.apply.before")

	a.mu.Lock()
	ackAt, err := a.laneApplyLocked(rc, done, *w)
	needBG := false
	if err == nil {
		a.opsSinceBG++
		needBG = a.opsSinceBG >= a.cfg.BackgroundEvery
	}
	a.mu.Unlock()
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

// laneWrite is one write between placement and apply: its chunks and what
// the stats need once it is acknowledged.
type laneWrite struct {
	at                sim.Time
	size              int64
	chunks            []writeChunk
	physical, deduped int64

	// The duplicate search's outcomes: it runs without a.mu, so they are
	// counted at apply.
	dedupHits, dedupMisses, inlineDupBlocks int64
}

// laneApplyLocked acknowledges a committed write: it charges the op's CPU
// cost, applies the facts and records the stats. rc is the receipt of the
// write's record and done is when it became durable. The flush watermark
// is NOT advanced here: a lane holds world shared, so other lanes' seqs may
// not be in the log yet (advanceWatermark). Caller holds mu.
func (a *Array) laneApplyLocked(rc nvram.Receipt, done sim.Time, w laneWrite) (sim.Time, error) {
	cpuCost := sim.Time(cpuOverhead + cpuPerKiBWrite*w.size/1024)
	ackAt := a.cpuLocked(done, cpuCost)
	for _, ch := range w.chunks {
		if err := a.applyFactsLocked(rc, relation.IDAddrs, []tuple.Fact{ch.addr}); err != nil {
			return ackAt, err
		}
		if len(ch.dedup) > 0 {
			if err := a.applyFactsLocked(rc, relation.IDDedup, ch.dedup); err != nil {
				return ackAt, err
			}
		}
	}
	a.stats.Writes++
	a.stats.WriteLatency.Record(ackAt - w.at)
	a.stats.LogicalBytes += w.size
	a.stats.PhysicalBytes += w.physical
	a.stats.DedupBytes += w.deduped
	a.stats.DedupHits += w.dedupHits
	a.stats.DedupMisses += w.dedupMisses
	a.stats.InlineDupBlocks += w.inlineDupBlocks
	return ackAt, nil
}

// laneCommitExclusive finishes the lane write in sc whose NVRAM append
// failed (typically ErrFull) through the log-full fallback,
// commitExclusiveLocked. Called with NO locks held; it takes the world
// lock exclusively. The write is restamped first: an exclusive section
// since its placement may have flushed newer facts, and a flush drops
// facts at or below a pyramid's watermark as replays, so under its old
// seqs the write would be lost.
func (a *Array) laneCommitExclusive(done sim.Time, ln *commitLane, sc *writeScratch) (sim.Time, error) {
	a.world.Lock()
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.world.Unlock()
	w := sc.w
	for i := range w.chunks {
		ch := &w.chunks[i]
		ch.addr.Seq = a.seqs.Next()
		for j := range ch.dedup {
			ch.dedup[j].Seq = a.seqs.Next()
		}
	}
	sc.rec = appendWriteRecord(sc.rec[:0], w.chunks)
	rc, done, err := a.commitExclusiveLocked(done, sc.rec)
	if err != nil {
		return done, err
	}
	ln.commits.Add(1)
	ackAt, err := a.laneApplyLocked(rc, done, w)
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
	a.advanceWatermark()
	return a.backgroundStepLocked(at)
}

// placeCBlockLane turns one prepared extent of a write into chunks, in
// §4.7's order: search for a duplicate, then pack and append only what is
// stored. A hit yields a deduplicated run referencing existing data plus the
// literal remainders; a miss yields the whole extent as one literal. Every
// literal is packed where it is placed (laneLiteralChunk). The dedup
// candidate search and packing run under no lock but the caller's world
// read lock (findDuplicate says why that suffices), literal placement
// under the slot mutex. The chunks, and the search's outcome for the
// stats, go into sc.w, to be applied after the commit point. startSector
// is the write's first sector. Returns how many sequence numbers were
// allocated.
func (a *Array) placeCBlockLane(at sim.Time, ln *commitLane, medium, startSector uint64, pe *preparedExtent, sc *writeScratch) (uint64, sim.Time, error) {
	done := at
	sector := startSector + pe.sectorOff
	sectors := len(pe.part) / cblock.SectorSize
	var allocated uint64
	// literal places sectors [lo, hi) of the extent as new data.
	literal := func(lo, hi int) error {
		if lo == hi {
			return nil
		}
		n, err := a.laneLiteralChunk(done, ln, medium, sector+uint64(lo),
			pe.part[lo*cblock.SectorSize:hi*cblock.SectorSize], pe.hashes[lo:hi], sc)
		allocated += n
		return err
	}
	if a.cfg.DedupEnabled {
		run, d, found := a.findDuplicate(done, pe.part, pe.hashes, &sc.batch)
		done = d
		hit := found && (run.Count >= dedupMinRunBlocks || run.Count == sectors)
		if hit {
			sc.w.dedupHits++
			sc.w.inlineDupBlocks += int64(run.Count)
		} else {
			sc.w.dedupMisses++
		}
		if hit {
			if err := literal(0, run.Start); err != nil {
				return allocated, done, err
			}
			// The duplicate run: a mapping into existing data, no new bytes.
			sc.w.chunks = append(sc.w.chunks, writeChunk{addr: relation.AddrRow{
				Medium:  medium,
				Sector:  sector + uint64(run.Start),
				Segment: run.Cand.Segment,
				SegOff:  run.Cand.SegOff,
				PhysLen: run.Cand.PhysLen,
				Inner:   uint64(run.CandStart),
				Sectors: uint64(run.Count),
				Flags:   relation.AddrFlagDedup,
			}.FactIn(sc.factCols(relation.AddrsSchema.Cols), a.seqs.Next())})
			allocated++
			err := literal(run.Start+run.Count, sectors)
			return allocated, done, err
		}
	}
	err := literal(0, sectors)
	return allocated, done, err
}

// laneLiteralChunk packs part into a cblock frame in sc.frames, with no
// lock held, and places it into the lane's segment, appending its chunk —
// address fact, sampled dedup facts, frame — to sc.w.chunks for the
// write's NVRAM record. hashes are part's per-block hashes, computed
// exactly once per extent in prepareWrite and threaded through. Returns
// how many sequence numbers it allocated.
func (a *Array) laneLiteralChunk(at sim.Time, ln *commitLane, medium, sector uint64, part []byte, hashes []uint64, sc *writeScratch) (uint64, error) {
	a.stats.PackedBytes.Add(int64(len(part)))
	f := len(sc.frames)
	var err error
	if sc.frames, err = cblock.AppendPack(sc.frames, part, a.cfg.CompressionEnabled); err != nil {
		return 0, err
	}
	frame := sc.frames[f:len(sc.frames):len(sc.frames)]
	// The segio append may trigger a flush; its completion time advances
	// the drives' busy state but must not gate this write's acknowledgement
	// — the commit path acks at NVRAM persistence (Figure 4), and the segio
	// write-back is asynchronous.
	seg, segOff, _, err := a.laneAppendData(at, ln, frame)
	if err != nil {
		return 0, err
	}
	ch := writeChunk{
		addr: relation.AddrRow{
			Medium: medium, Sector: sector,
			Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)),
			Sectors: uint64(len(part)) / cblock.SectorSize,
		}.FactIn(sc.factCols(relation.AddrsSchema.Cols), a.seqs.Next()),
		frame: frame,
	}
	allocated := uint64(1)

	// Record a sample of the block hashes persistently, everything recently.
	d := len(sc.dedup)
	for i, h := range hashes {
		cand := dedup.Candidate{Segment: uint64(seg), SegOff: uint64(segOff), PhysLen: uint64(len(frame)), SectorIdx: uint64(i)}
		a.recent.Add(h, cand)
		if a.cfg.DedupEnabled && dedup.ShouldRecord(i, a.cfg.DedupSampling) {
			sc.dedup = append(sc.dedup, relation.DedupRow{
				Hash: h, Segment: cand.Segment, SegOff: cand.SegOff,
				PhysLen: cand.PhysLen, SectorIdx: cand.SectorIdx,
			}.FactIn(sc.factCols(relation.DedupSchema.Cols), a.seqs.Next()))
			allocated++
		}
	}
	ch.dedup = sc.dedup[d:len(sc.dedup):len(sc.dedup)]
	sc.w.chunks = append(sc.w.chunks, ch)
	return allocated, nil
}

// laneAppendData appends a blob to the lane's open segment. Per-lane open
// segments are the down payment on multi-stream placement: each lane's
// writes stay physically clustered, so data written together dies together
// (ROADMAP "GC and maintenance that do not stop the world", its heat-aware
// placement part). The fast path holds only the slot mutex; an empty or
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
	Lane    int
	Commits int64
	// BatchesLed and BatchRecords equal Commits: every record is its own
	// NVRAM append. They are kept only because benchmark/ reads them, and
	// left out of the stats document.
	BatchesLed     int64 `json:"-"`
	BatchRecords   int64 `json:"-"`
	QueueWaits     int64
	SeqInterleaves int64
	Rotations      int64
}

// LaneStats is the commit-lane observability snapshot.
type LaneStats struct {
	Lanes []LaneStat
	// MaxQueueDepth is constant: it is always 1. It is kept only because
	// benchmark/ reads it.
	MaxQueueDepth int64
}

// LaneTelemetry snapshots the lane counters.
func (a *Array) LaneTelemetry() LaneStats {
	out := LaneStats{MaxQueueDepth: 1}
	for _, ln := range a.lanes {
		commits := ln.commits.Load()
		out.Lanes = append(out.Lanes, LaneStat{
			Lane:           ln.id,
			Commits:        commits,
			BatchesLed:     commits,
			BatchRecords:   commits,
			QueueWaits:     ln.queueWaits.Load(),
			SeqInterleaves: ln.seqInterleaves.Load(),
			Rotations:      ln.slot.rotations.Load(),
		})
	}
	return out
}
