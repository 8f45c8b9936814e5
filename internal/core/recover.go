package core

import (
	"errors"
	"fmt"
	"sort"

	"purity/internal/cblock"
	"purity/internal/layout"
	"purity/internal/nvram"
	"purity/internal/pyramid"
	"purity/internal/relation"
	"purity/internal/shelf"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// RecoveryStats reports what recovery had to do — experiment F5 compares
// the frontier-bounded scan against a full-array scan.
type RecoveryStats struct {
	CheckpointEpoch    uint64
	AUsScanned         int
	TrailersFound      int
	SegmentsDiscovered int
	StripesScanned     int
	PatchesApplied     int
	NVRAMRecords       int
	RecordsRejected    int      // malformed NVRAM records skipped by replay
	LostShardsMarked   int      // swapped-in shards found garbage (rebuild was mid-copy)
	ScanTime           sim.Time // the AU/stripe scan alone
	TotalTime          sim.Time
}

// errBadRecord marks an NVRAM record that replay rejects as malformed —
// corrupt bytes that slipped past the CRC framing, an unknown record
// kind, or facts that fail schema validation. Such records are counted
// and skipped rather than aborting recovery: a damaged trailing record
// was by definition never acknowledged. Real I/O errors do not wrap this
// sentinel and still abort.
var errBadRecord = errors.New("core: malformed NVRAM record")

// Open recovers an array from an existing shelf using the frontier-bounded
// scan (§4.3, Figure 5).
func Open(cfg Config, sh *shelf.Shelf) (*Array, RecoveryStats, error) {
	return OpenAt(cfg, sh, 0, false)
}

// OpenAt recovers at a given simulated time. fullScan reads every AU's
// trailer instead of only the frontier set — the pre-frontier behaviour the
// paper replaced (12 s → 0.1 s).
func OpenAt(cfg Config, sh *shelf.Shelf, at sim.Time, fullScan bool) (*Array, RecoveryStats, error) {
	cfg = cfg.normalize()
	var rs RecoveryStats
	a, err := newSkeleton(cfg, sh)
	if err != nil {
		return nil, rs, err
	}
	done := at

	// 1. Latest checkpoint from the boot region.
	ckpt, d, err := a.boot.ReadLatest(done)
	done = d
	if err != nil {
		return nil, rs, fmt.Errorf("core: shelf is not formatted: %w", err)
	}
	rs.CheckpointEpoch = ckpt.Epoch
	a.epoch = ckpt.Epoch
	a.nextMedium = ckpt.NextMedium
	a.nextVolume = ckpt.NextVolume
	a.nextSegment = ckpt.NextSegment
	a.seqs.AdvanceTo(tuple.Seq(ckpt.SeqWatermark))
	a.crash.Hit("recover.ckpt-loaded")

	// 2. Segment map and allocator state. Segments open at the crash will
	// never be appended to again: mark them sealed in memory. Segments the
	// checkpoint saw as still open may have gained stripes and sealed
	// afterwards, so their AUs join the recovery scan below — the AU
	// trailer, if one landed, is the fresher description.
	var openAtCkpt []layout.AU
	for _, info := range ckpt.Segments {
		if !info.Sealed {
			openAtCkpt = append(openAtCkpt, info.AUs...)
		}
		info.Sealed = true
		a.segMap[info.ID] = info
		a.alloc.MarkInUse(info.AUs)
		a.seqs.AdvanceTo(info.SeqMax)
	}

	// 3. Patch catalogs.
	for _, blob := range ckpt.Patches {
		relID, patch, err := pyramid.UnmarshalPatch(blob)
		if err != nil {
			return nil, rs, err
		}
		p, ok := a.pyr[relID]
		if !ok {
			return nil, rs, fmt.Errorf("core: checkpoint patch for unknown relation %d", relID)
		}
		if err := p.AddPatch(patch); err != nil {
			return nil, rs, err
		}
		a.seqs.AdvanceTo(patch.SeqHi)
	}

	// 4. Scan for segments sealed since the checkpoint. The frontier set
	// bounds this to the AUs the allocator could have used (Figure 5).
	scanStart := done
	var scanList []layout.AU
	if fullScan {
		for drv := 0; drv < sh.NumDrives(); drv++ {
			n := cfg.Layout.AUsPerDrive(sh.Drive(drv).Capacity())
			for i := int64(cfg.Layout.BootAUs); i < n+int64(cfg.Layout.BootAUs); i++ {
				scanList = append(scanList, layout.AU{Drive: drv, Index: i})
			}
		}
	} else {
		scanList = append(append([]layout.AU(nil), ckpt.Frontier...), ckpt.Speculative...)
		scanList = append(scanList, openAtCkpt...)
	}
	consumed := map[layout.AU]bool{}
	for _, au := range scanList {
		rs.AUsScanned++
		trailer, d, err := a.reader.ReadAUTrailer(done, au)
		done = d
		if err != nil {
			continue // unused or unsealed: nothing durable to find here
		}
		rs.TrailersFound++
		if old, known := a.segMap[trailer.Segment]; known {
			// The checkpoint's view of this segment may predate stripes
			// that were flushed and sealed afterwards; the AU trailer is
			// the segment's own, strictly fresher description (§4.3:
			// segments are self-describing). Without this, facts pointing
			// into the later stripes would be misjudged as stale.
			if trailer.Stripes > old.Stripes {
				fresh := trailer.Info()
				a.segMap[trailer.Segment] = fresh
				a.seqs.AdvanceTo(fresh.SeqMax)
			}
			consumed[au] = true
			continue
		}
		info := trailer.Info()
		a.segMap[info.ID] = info
		a.alloc.MarkInUse(info.AUs)
		a.seqs.AdvanceTo(info.SeqMax)
		rs.SegmentsDiscovered++
		for _, owned := range info.AUs {
			consumed[owned] = true
		}
		// Harvest the log records (patch descriptors) from its stripes.
		for s := 0; s < info.Stripes; s++ {
			logs, d, err := a.reader.ReadStripeLogs(done, info, s)
			done = d
			rs.StripesScanned++
			if err != nil {
				continue
			}
			for _, rec := range logs.Records {
				relID, patch, err := pyramid.UnmarshalPatch(rec)
				if err != nil {
					continue // not a descriptor
				}
				if p, ok := a.pyr[relID]; ok {
					if err := p.AddPatch(patch); err != nil {
						return nil, rs, err
					}
					a.seqs.AdvanceTo(patch.SeqHi)
					rs.PatchesApplied++
				}
			}
		}
	}
	// Frontier AUs consumed by discovered segments leave the frontier.
	var remaining []layout.AU
	for _, au := range append(append([]layout.AU(nil), ckpt.Frontier...), ckpt.Speculative...) {
		if !consumed[au] {
			remaining = append(remaining, au)
		}
	}
	a.alloc.SetFrontier(remaining)
	rs.ScanTime = done - scanStart
	a.crash.Hit("recover.scanned")

	// 5. Materialize elide tables from the recovered elide relation. The
	// watermark covers state already read back from the log and checkpoint.
	// The array is not yet published, so taking world waits on no one.
	a.world.Lock()
	a.advanceWatermark()
	a.world.Unlock()
	if _, err := a.pyr[relation.IDElide].Visit(done, nil, nil, true, func(f tuple.Fact) bool {
		a.applyElideFact(f)
		return true
	}); err != nil {
		return nil, rs, err
	}

	// 6. Segment IDs are never reused (like sequence numbers): before replay
	// opens its first segment, nextSegment must exceed every ID that any
	// surviving fact, patch or record can name — including segments that did
	// NOT survive (their IDs live on in stale facts, and a collision would
	// make those stale facts point at fresh data). That bound follows from
	// what recovery has already read, with no pass over the pyramids:
	//
	//   - Every ID comes from nextSegment++ (newSegmentWriterLocked), and
	//     every checkpoint persists NextSegment: an ID allocated before the
	//     loaded checkpoint is below it.
	//   - An addr or dedup fact created after that checkpoint reached its
	//     pyramid only through an NVRAM record (append precedes apply: an
	//     apply takes the record's receipt), and only a later checkpoint
	//     trims the log: the records loop below bumps past every segment a
	//     record names.
	//   - The one fact no record names is one an earlier recovery's replay
	//     remapped into a segment X it opened (the record still names the
	//     original). It reaches media only inside a flushed patch, whose
	//     pages sit in a meta segment allocated after X, so with a higher ID;
	//     that patch is known here through the checkpoint (which then
	//     persisted a NextSegment above X) or through the sealed meta
	//     segment's trailer: the segment-map and page-ref bumps cover it.
	//
	// The second point needs the whole log since the checkpoint. With every
	// NVRAM mirror lost (recovery then proceeds from the checkpoint alone),
	// or a record rejected before the records loop could read its segments,
	// a patch sealed since the checkpoint may name a data segment that was
	// open at the crash and that nothing else names. Only then does recovery
	// fall back to scanning every addrs/dedup version (scanSegmentRefs) —
	// most of recovery's CPU when it runs. Check runs the same scan as an
	// invariant.
	bumpSeg := func(id uint64) {
		if id >= a.nextSegment {
			a.nextSegment = id + 1
		}
	}
	for id := range a.segMap {
		bumpSeg(uint64(id))
	}
	for _, relID := range a.relationIDs() {
		for _, patch := range a.pyr[relID].Patches() {
			for _, pg := range patch.Pages {
				bumpSeg(pg.Ref.Segment)
			}
		}
	}

	// The records loop: every segment an NVRAM record names is reserved
	// before the first record is applied. Each record is decoded once, here,
	// for both passes.
	logged, wholeLog := replayRecords(sh)
	var records []replayRec
	for _, r := range logged {
		rec := decodeRecord(r.Payload)
		rec.rc = r.Receipt()
		records = append(records, rec)
	}
	for _, rec := range records {
		if rec.err != nil {
			wholeLog = false
			continue
		}
		switch rec.relID {
		case relation.IDAddrs:
			for _, f := range rec.facts {
				bumpSeg(relation.AddrFromFact(f).Segment)
			}
		case relation.IDDedup:
			for _, f := range rec.facts {
				bumpSeg(relation.DedupFromFact(f).Segment)
			}
		case relation.IDSegments:
			for _, f := range rec.facts {
				bumpSeg(relation.SegmentFromFact(f).Segment)
			}
		case relation.IDSegmentAUs:
			for _, f := range rec.facts {
				bumpSeg(relation.SegmentAUFromFact(f).Segment)
			}
		}
		for _, ch := range rec.chunks {
			bumpSeg(ch.addr.Cols[2])
			for _, df := range ch.dedup {
				bumpSeg(df.Cols[1])
			}
		}
	}
	if !wholeLog {
		if err := a.scanSegmentRefs(done, func(_ uint32, _ tuple.Fact, seg uint64) bool {
			bumpSeg(seg)
			return true
		}); err != nil {
			return nil, rs, err
		}
	}

	// 7. NVRAM replay: every record since the last checkpoint. Facts are
	// immutable, so replaying records whose effects partially survived is
	// harmless (§4.3 — recovery is a set union). A malformed record —
	// corrupt bytes that passed the CRC, a frame whose length is not its
	// address fact's PhysLen, or facts that fail schema validation — is
	// rejected and counted, not fatal: only real I/O failures abort recovery.
	for _, rec := range records {
		rs.NVRAMRecords++
		a.crash.Hit("recover.replay")
		d, err := a.replayRecord(done, rec)
		done = d
		if err != nil {
			if errors.Is(err, errBadRecord) {
				rs.RecordsRejected++
				continue
			}
			return nil, rs, err
		}
	}
	a.crash.Hit("recover.replayed")
	// Every replayed fact came out of the NVRAM log itself.
	a.world.Lock()
	a.advanceWatermark()
	a.world.Unlock()

	// 7b. Rebuild AU swaps. A rebuild commits each shard's SegmentAUs fact
	// through NVRAM *before* copying data (fact-first), so the latest fact
	// per (segment, shard) is the authority on placement, superseding both
	// the checkpoint and the AU trailers (which still describe the
	// pre-rebuild layout). If the crash landed between fact and data copy,
	// the swapped-in AU holds garbage — verified reads detect that against
	// the surviving shards' trailer CRCs, reconstruct, and repair in
	// place; re-running the rebuild completes the copy. AUs displaced by a
	// swap are erased and freed here, exactly as a finished rebuild would
	// have done.
	var staleAUs []layout.AU
	type swap struct {
		id   layout.SegmentID
		slot int
	}
	var swaps []swap
	if _, err := a.pyr[relation.IDSegmentAUs].Visit(done, nil, nil, false, func(f tuple.Fact) bool {
		row := relation.SegmentAUFromFact(f)
		info, ok := a.segMap[layout.SegmentID(row.Segment)]
		if !ok || int(row.Shard) >= len(info.AUs) {
			return true
		}
		newAU := layout.AU{Drive: int(row.Drive), Index: int64(row.AUIndex)}
		old := info.AUs[row.Shard]
		if old == newAU {
			return true
		}
		info.AUs = append([]layout.AU(nil), info.AUs...)
		info.AUs[row.Shard] = newAU
		a.segMap[info.ID] = info
		a.alloc.MarkInUse([]layout.AU{newAU})
		staleAUs = append(staleAUs, old)
		swaps = append(swaps, swap{info.ID, int(row.Shard)})
		return true
	}); err != nil {
		return nil, rs, err
	}
	// CRC-check each swapped-in shard: if the crash hit between the fact
	// and the data copy it holds garbage, so re-mark it lost — reads then
	// serve it from parity and the next Rebuild pass finishes the copy.
	for _, sw := range swaps {
		info := a.segMap[sw.id]
		intact, d := a.reader.VerifyShard(done, info, sw.slot)
		done = d
		if !intact {
			a.setShardLost(sw.id, sw.slot, true)
			rs.LostShardsMarked++
		}
	}
	if len(staleAUs) > 0 {
		owned := map[layout.AU]bool{}
		for _, info := range a.segMap {
			for _, au := range info.AUs {
				owned[au] = true
			}
		}
		for _, au := range staleAUs {
			if owned[au] {
				continue
			}
			if drv := sh.Drive(au.Drive); !drv.Failed() {
				if d, err := drv.Erase(done, au.Offset(cfg.Layout)); err == nil && d > done {
					done = d
				}
			}
			a.alloc.Free([]layout.AU{au})
		}
	}

	// Medium and volume IDs are never reused either: facts created after
	// the checkpoint (recovered from NVRAM or patches) may carry IDs past
	// the checkpoint's counters, and elided mediums' IDs may survive only
	// inside elide predicates. Reusing any of them would graft new state
	// onto old identities (worst case: a cycle in the medium graph).
	bumpMedium := func(id uint64) {
		if id != relation.NoMedium && id >= a.nextMedium {
			a.nextMedium = id + 1
		}
	}
	bumpVolume := func(id uint64) {
		if id >= a.nextVolume {
			a.nextVolume = id + 1
		}
	}
	if _, err := a.pyr[relation.IDMediums].Visit(done, nil, nil, true, func(f tuple.Fact) bool {
		row := relation.MediumFromFact(f)
		bumpMedium(row.Source)
		bumpMedium(row.Target)
		return true
	}); err != nil {
		return nil, rs, err
	}
	newestVolume := map[uint64]tuple.Fact{}
	if _, err := a.pyr[relation.IDVolumes].Visit(done, nil, nil, true, func(f tuple.Fact) bool {
		row := relation.VolumeFromFact(f)
		bumpVolume(row.Volume)
		bumpMedium(row.Medium)
		if g, ok := newestVolume[row.Volume]; !ok || f.Seq > g.Seq {
			newestVolume[row.Volume] = f.Clone()
		}
		return true
	}); err != nil {
		return nil, rs, err
	}
	// The same versions give the provisioned-bytes aggregate its start.
	for _, f := range newestVolume {
		if row := relation.VolumeFromFact(f); row.State == relation.VolumeActive {
			a.provisioned += int64(row.SizeSectors) * cblock.SectorSize
		}
	}
	if _, err := a.pyr[relation.IDElide].Visit(done, nil, nil, true, func(f tuple.Fact) bool {
		row := relation.ElideFromFact(f)
		if (row.Table == relation.IDAddrs || row.Table == relation.IDMediums) && row.Col == 0 {
			bumpMedium(row.Hi)
		}
		return true
	}); err != nil {
		return nil, rs, err
	}

	// 8. Honor durable retirements. A segment reclaimed by GC after the
	// last checkpoint is still listed in that checkpoint (and was just
	// resurrected into the segment map above), but its SegmentDead fact —
	// committed through NVRAM at reclaim time — survives. Without this
	// step the zombie would be re-reclaimed later and erase AUs that now
	// belong to a successor segment.
	dead := map[uint64]bool{}
	if _, err := a.pyr[relation.IDSegments].Visit(done, nil, nil, false, func(f tuple.Fact) bool {
		row := relation.SegmentFromFact(f)
		if row.State == relation.SegmentDead {
			dead[row.Segment] = true
		}
		return true
	}); err != nil {
		return nil, rs, err
	}
	if len(dead) > 0 {
		owned := map[layout.AU]bool{}
		deadIDs := make([]layout.SegmentID, 0, len(dead))
		for id, info := range a.segMap {
			if dead[uint64(id)] {
				deadIDs = append(deadIDs, id)
				continue
			}
			for _, au := range info.AUs {
				owned[au] = true
			}
		}
		sort.Slice(deadIDs, func(i, j int) bool { return deadIDs[i] < deadIDs[j] })
		for _, id := range deadIDs {
			info := a.segMap[id]
			var free []layout.AU
			for _, au := range info.AUs {
				if !owned[au] {
					free = append(free, au)
				}
			}
			a.alloc.Free(free)
			delete(a.segMap, id)
		}
	}

	// Recovery advanced the watermark once replay was done and issues no
	// seq after it: every fact it holds came from the checkpoint, a patch
	// or the log.
	if current := a.seqs.Current(); a.persistedSeq != current {
		return nil, rs, fmt.Errorf("core: recovery issued a seq past its watermark: persisted %d, current %d", a.persistedSeq, current)
	}

	rs.TotalTime = done - at
	return a, rs, nil
}

// replayRecords picks the NVRAM device to replay: the surviving device
// whose log reaches furthest. Commits append to every healthy device before
// acking and checkpoints release them together, so the mirrors hold
// identical same-order prefixes — the longest log is a superset of every
// other, and no acknowledged record is lost even with one device dead.
// survived is false when every device is lost: recovery then proceeds from
// the checkpoint alone.
func replayRecords(sh *shelf.Shelf) (recs []nvram.Record, survived bool) {
	best := -1
	var bestHead nvram.LSN
	for i := 0; i < sh.NumNVRAM(); i++ {
		nv := sh.NVRAM(i)
		if nv.Failed() {
			continue
		}
		if head := nv.Head(); best < 0 || head > bestHead {
			best, bestHead = i, head
		}
	}
	if best < 0 {
		return nil, false
	}
	return sh.NVRAM(best).Records(), true
}

// scanSegmentRefs calls fn with the segment every addrs and dedup version
// names — live, shadowed or stale — until fn returns false. The fact is
// borrowed (pyramid.Visit): valid only during fn. Recovery runs it only
// when the NVRAM log cannot bound segment IDs (step 6); Check runs it as an
// invariant.
func (a *Array) scanSegmentRefs(at sim.Time, fn func(relID uint32, f tuple.Fact, seg uint64) bool) error {
	for _, rel := range []struct {
		id  uint32
		col int // the segment column
	}{{relation.IDAddrs, 2}, {relation.IDDedup, 1}} {
		more := true
		if _, err := a.pyr[rel.id].Visit(at, nil, nil, true, func(f tuple.Fact) bool {
			more = fn(rel.id, f, f.Cols[rel.col])
			return more
		}); err != nil {
			return err
		}
		if !more {
			return nil
		}
	}
	return nil
}

// applyElideFact materializes one persisted elide predicate.
func (a *Array) applyElideFact(f tuple.Fact) {
	row := relation.ElideFromFact(f)
	if et, ok := a.elides[row.Table]; ok {
		et.Add(elidePredicate(row))
	}
}

// replayRec is one NVRAM record decoded for replay: by kind, the facts of
// one relation or the chunks of a data write; or the reason the record is
// malformed. rc is the record's read-back receipt, which its applies take.
type replayRec struct {
	kind   byte
	relID  uint32
	facts  []tuple.Fact
	chunks []writeChunk
	err    error // wraps errBadRecord
	rc     nvram.Receipt
}

// decodeRecord parses one NVRAM record. Undecodable bytes and unknown
// kinds come back as an error wrapping errBadRecord.
func decodeRecord(payload []byte) replayRec {
	if len(payload) == 0 {
		return replayRec{err: fmt.Errorf("%w: empty payload", errBadRecord)}
	}
	rec := replayRec{kind: payload[0]}
	var err error
	switch rec.kind {
	case recFacts:
		rec.relID, rec.facts, err = decodeFactsRecord(payload[1:])
	case recWrite:
		rec.chunks, err = decodeWriteRecord(payload[1:])
	default:
		err = fmt.Errorf("unknown record kind %d", rec.kind)
	}
	if err != nil {
		rec.err = fmt.Errorf("%w: %v", errBadRecord, err)
	}
	return rec
}

// replayRecord redoes one NVRAM record. Malformed records (undecodable
// bytes, unknown kinds, schema-invalid facts) return errors wrapping
// errBadRecord so the replay loop can reject them without aborting.
// Recovery runs single-threaded before the array is published, so the
// *Locked helpers below are called without holding mu.
func (a *Array) replayRecord(at sim.Time, rec replayRec) (sim.Time, error) {
	if rec.err != nil {
		return at, rec.err
	}
	switch rec.kind {
	case recFacts:
		for _, f := range rec.facts {
			a.seqs.AdvanceTo(f.Seq)
		}
		//lint:ignore lockflow recovery replay: single-threaded before the array is published
		if err := a.applyFactsLocked(rec.rc, rec.relID, rec.facts); err != nil {
			return at, fmt.Errorf("%w: %v", errBadRecord, err)
		}
		return at, nil
	default: // recWrite
		done := at
		for _, ch := range rec.chunks {
			a.seqs.AdvanceTo(ch.addr.Seq)
			for _, df := range ch.dedup {
				a.seqs.AdvanceTo(df.Seq)
			}
			if ch.frame != nil {
				// Place the frame the write placed, as it is, and point the
				// facts at the new copy; the original placement may not have
				// survived the crash. decodeWriteRecord checked its length
				// against PhysLen, so the remap keeps PhysLen.
				//lint:ignore lockflow recovery is single-threaded; the array is not yet published
				seg, off, d, err := a.appendDataLocked(done, classData, ch.frame)
				done = d
				if err != nil {
					return done, err
				}
				physLen := uint64(len(ch.frame))
				ch.addr = relation.RemapAddr(ch.addr, uint64(seg), uint64(off), physLen)
				for i := range ch.dedup {
					ch.dedup[i] = relation.RemapDedup(ch.dedup[i], uint64(seg), uint64(off), physLen)
				}
			}
			//lint:ignore lockflow recovery replay: single-threaded before the array is published
			if err := a.applyFactsLocked(rec.rc, relation.IDAddrs, []tuple.Fact{ch.addr}); err != nil {
				return done, fmt.Errorf("%w: %v", errBadRecord, err)
			}
			//lint:ignore lockflow recovery replay: single-threaded before the array is published
			if err := a.applyFactsLocked(rec.rc, relation.IDDedup, ch.dedup); err != nil {
				return done, fmt.Errorf("%w: %v", errBadRecord, err)
			}
		}
		return done, nil
	}
}

// FlushAll makes all pending state durable and seals the open segments —
// a graceful shutdown / quiesce. Subsequent writes open fresh segments.
func (a *Array) FlushAll(at sim.Time) (sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	done, err := a.sealOpenLocked(at)
	if err != nil {
		return done, err
	}
	return a.checkpointLocked(done)
}
