package core

import (
	"fmt"
	"sort"

	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/shelf"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// RebuildReport summarizes one online rebuild pass for a replaced drive.
type RebuildReport struct {
	Drive           int
	SegmentsRebuilt int
	WriteUnitsMoved int
	BytesMoved      int64
	// SkippedIntact counts segments whose swapped-in shard already held
	// valid data (a prior rebuild finished the copy before a crash) — the
	// idempotence path.
	SkippedIntact int
	// Unrecoverable counts shards that could not be reconstructed (fewer
	// than K readable peers): data loss beyond the code's tolerance.
	Unrecoverable int
}

// ReplaceDrive swaps a pulled drive for a fresh device and marks every
// shard that lived on it as lost, so reads serve those shards from parity
// until Rebuild copies them back (§4.2: rebuild to spare capacity, not a
// dedicated hot spare). Open segments are sealed first: their writes to
// the dead drive vanished silently (the writer tolerates ≤M failures), so
// sealing pins the survivors' trailers and lets the missing shards be
// rebuilt like any sealed segment's.
func (a *Array) ReplaceDrive(at sim.Time, drive int) (sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	done, err := a.sealOpenLocked(at)
	if err != nil {
		return done, err
	}
	if _, err := a.shelf.Replace(drive); err != nil {
		return done, err
	}
	for id, info := range a.segMap {
		for slot, au := range info.AUs {
			if au.Drive == drive {
				a.setShardLost(id, slot, true)
			}
		}
	}
	a.stats.DriveReplaces++
	// The boot region replicates checkpoints on the first drives; swapping
	// one of those in blank destroys its replica. Re-checkpoint so the
	// boot chain is replicated onto the fresh device before another
	// replica can fail.
	bootReplicas := 3
	if n := a.shelf.NumDrives(); bootReplicas > n {
		bootReplicas = n
	}
	if drive < bootReplicas {
		d, err := a.checkpointLocked(done)
		done = d
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// Rebuild restores full redundancy for a replaced drive: every segment
// with a lost shard there gets that shard reconstructed from its K
// surviving peers and written to a fresh AU, with the placement swap
// committed through NVRAM *before* the copy (fact-first — see
// rebuildSegmentLocked). The pass is online: the engine mutex is released
// between segments, so foreground I/O interleaves with the copy-back, and
// re-running after a crash is idempotent.
func (a *Array) Rebuild(at sim.Time, drive int) (RebuildReport, sim.Time, error) {
	rep := RebuildReport{Drive: drive}
	done := at

	// Rebuild swaps segment placements (SegmentAUs facts); quiesce lane
	// commits for the pass. Foreground reads take only mu and still
	// interleave between segments.
	a.world.Lock()
	defer a.world.Unlock()

	a.mu.Lock()
	ids := make([]layout.SegmentID, 0)
	for id, info := range a.segMap {
		if a.lostShardOn(info, drive) != -1 {
			ids = append(ids, id)
		}
	}
	a.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		a.mu.Lock()
		d, err := a.rebuildSegmentLocked(done, id, drive, &rep)
		a.mu.Unlock()
		done = d
		if err != nil {
			return rep, done, err
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.crash.Hit("rebuild.drive.done")
	remaining := false
	for _, info := range a.segMap {
		if a.lostShardOn(info, drive) != -1 {
			remaining = true
			break
		}
	}
	if !remaining && rep.Unrecoverable == 0 && a.shelf.State(drive) == shelf.DriveRebuilding {
		a.shelf.MarkHealthy(drive)
	}
	a.stats.Rebuilds++
	a.stats.RebuildSegments += int64(rep.SegmentsRebuilt)
	a.stats.RebuildBytes += rep.BytesMoved
	return rep, done, nil
}

// rebuildSegmentLocked restores one segment's lost shard on `drive`.
// Caller holds mu.
//
// Ordering is fact-first: the SegmentAUs swap is made durable through
// NVRAM before any data moves. A crash after the fact leaves the new AU
// holding garbage, which is safe — the shard stays marked lost (recovery
// re-marks it by CRC-checking swapped shards), verified reads serve it
// from parity, and the next Rebuild run finishes the copy. The reverse
// order would be worse: data copied but the fact lost means the old,
// vanished AU is still the placement of record after a crash.
func (a *Array) rebuildSegmentLocked(at sim.Time, id layout.SegmentID, drive int, rep *RebuildReport) (sim.Time, error) {
	done := at
	a.crash.Hit("rebuild.segment.begin")
	info, ok := a.segInfoLocked(id)
	if !ok || !info.Sealed {
		return done, nil // retired by GC, or never sealed (nothing durable lost)
	}
	slot := a.lostShardOn(info, drive)
	if slot == -1 {
		return done, nil
	}

	// Idempotence: a prior rebuild may have finished the copy right before
	// a crash. If the shard's write units all match the trailer CRCs the
	// data is already home — just clear the mark.
	if intact, d := a.reader.VerifyShard(done, info, slot); intact {
		a.setShardLost(id, slot, false)
		rep.SkippedIntact++
		return d, nil
	} else {
		done = d
	}

	// Destination: the replacement drive when it has free AUs, else any
	// healthy drive not already hosting one of this segment's shards (a
	// second shard on one drive would halve the code's failure tolerance).
	newAU, err := a.alloc.AllocateOn(drive)
	if err != nil {
		hosts := map[int]bool{}
		for s2, au := range info.AUs {
			if s2 != slot {
				hosts[au.Drive] = true
			}
		}
		for d2 := 0; d2 < a.shelf.NumDrives() && err != nil; d2++ {
			if d2 == drive || hosts[d2] || a.shelf.Drive(d2).Failed() {
				continue
			}
			newAU, err = a.alloc.AllocateOn(d2)
		}
		if err != nil {
			return done, fmt.Errorf("core: rebuild segment %d shard %d: %w", id, slot, err)
		}
	}

	d, err := a.commitFactsLocked(done, relation.IDSegmentAUs, []tuple.Fact{relation.SegmentAURow{
		Segment: uint64(id), Shard: uint64(slot),
		Drive: uint64(newAU.Drive), AUIndex: uint64(newAU.Index),
	}.Fact(a.seqs.Next())})
	done = d
	if err != nil {
		a.alloc.Free([]layout.AU{newAU})
		return done, err
	}
	a.crash.Hit("rebuild.swap.committed")

	oldAU := info.AUs[slot]
	newAUs := append([]layout.AU(nil), info.AUs...)
	newAUs[slot] = newAU
	info.AUs = newAUs
	a.segMap[id] = info
	// The shard stays marked lost until the copy lands: the swapped-in AU
	// is garbage right now and must not serve reads or donate to
	// reconstruction.

	var rstats layout.ReadStats
	wus := make([][]byte, info.Stripes)
	for s := 0; s < info.Stripes; s++ {
		wus[s] = make([]byte, a.cfg.Layout.WriteUnit)
		d, err := a.reader.ReconstructWU(done, info, s, slot, wus[s], &rstats)
		done = d
		if err != nil {
			a.stats.SegRead.Add(rstats)
			rep.Unrecoverable++
			return done, fmt.Errorf("core: rebuild segment %d shard %d stripe %d: %w", id, slot, s, err)
		}
	}
	a.stats.SegRead.Add(rstats)

	// The trailer travels with the shard: clone a surviving peer's (same
	// stripes, seqs, and per-write-unit CRCs) and restamp identity and
	// placement.
	var trailer layout.AUTrailer
	haveTrailer := false
	for s2, au := range info.AUs {
		if s2 == slot || a.shardLost(id, s2) || a.shelf.Drive(au.Drive).Failed() {
			continue
		}
		t, d, terr := a.reader.ReadAUTrailer(done, au)
		done = d
		if terr == nil && t.Segment == id {
			trailer = t
			haveTrailer = true
			break
		}
	}
	if !haveTrailer {
		return done, fmt.Errorf("core: rebuild segment %d: no readable peer trailer", id)
	}
	trailer.Shard = slot
	trailer.AUs = newAUs

	d2, err := layout.RewriteShard(done, a.cfg.Layout, a.shelf.Drive(newAU.Drive), newAU, trailer, wus)
	done = d2
	if err != nil {
		return done, err
	}
	a.crash.Hit("rebuild.shard.written")
	a.setShardLost(id, slot, false)
	a.reader.InvalidateSegment(id)

	// Retire the displaced AU. On the replacement device it never held
	// data; erase keeps the free-AUs-are-erased invariant either way.
	if drv := a.shelf.Drive(oldAU.Drive); !drv.Failed() {
		//lint:ignore lockflow erase must complete before Free republishes the AU (free-AUs-are-erased invariant), and rebuild is a background path, not a foreground op
		if d, err := drv.Erase(done, oldAU.Offset(a.cfg.Layout)); err == nil && d > done {
			done = d
		}
	}
	a.alloc.Free([]layout.AU{oldAU})

	rep.SegmentsRebuilt++
	rep.WriteUnitsMoved += info.Stripes
	rep.BytesMoved += int64(info.Stripes) * int64(a.cfg.Layout.WriteUnit)
	return done, nil
}
