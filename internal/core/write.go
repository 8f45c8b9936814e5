package core

import (
	"fmt"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
)

// The write path is split into two halves so parallel clients only
// serialize on the work that truly needs ordering (§3.2: monotonic facts
// need "almost no cross-core synchronization"):
//
//   1. prepareWrite — pure CPU, no locks: split into cblock extents,
//      compress each extent (cblock.Pack) and hash its 512 B blocks
//      (dedup.HashBlocks). Extents fan out across the shared worker pool.
//   2. commitWriteLane (lane.go) — on the volume's commit lane: volume
//      lookup and dedup candidate search under brief mu sections, segment
//      placement under the lane mutex, sequence allocation from the shared
//      atomic source, the group NVRAM commit, then fact application.
//
// Both halves are deterministic for a sequential caller: stage 1 is a
// function of the data alone, and one caller's commits run one at a time
// in issue order (DESIGN.md invariant 8).

// preparedExtent is one cblock-sized extent of a write after its pure-CPU
// stages: the packed (compressed) frame for the whole extent and the hash
// of every 512 B block. Hashes are per-block, so any sub-range of the
// extent reuses a slice of them; the frame only serves the whole-extent
// literal case (a dedup hit repacks the literal remainder, which is
// smaller).
type preparedExtent struct {
	sectorOff uint64 // sector offset within the write
	part      []byte
	frame     []byte
	hashes    []uint64
}

// prepareWrite validates alignment and runs the lock-free CPU stages.
func (a *Array) prepareWrite(off int64, data []byte) ([]preparedExtent, error) {
	if off%cblock.SectorSize != 0 || len(data)%cblock.SectorSize != 0 || len(data) == 0 {
		return nil, ErrUnaligned
	}
	exts, err := cblock.SplitWrite(len(data))
	if err != nil {
		return nil, err
	}
	prep := make([]preparedExtent, len(exts))
	errs := make([]error, len(exts))
	tasks := make([]func(), len(exts))
	for i, ext := range exts {
		i, ext := i, ext
		tasks[i] = func() {
			part := data[ext.Offset : ext.Offset+ext.Len]
			frame, err := cblock.Pack(part, a.cfg.CompressionEnabled)
			if err != nil {
				errs[i] = err
				return
			}
			prep[i] = preparedExtent{
				sectorOff: uint64(ext.Offset) / cblock.SectorSize,
				part:      part,
				frame:     frame,
				hashes:    dedup.HashBlocks(part),
			}
		}
	}
	a.pool.Run(tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prep, nil
}

// WriteAt writes data to a volume at a byte offset (both sector-aligned).
// The write is acknowledged when its facts and payloads are durable in
// NVRAM; segment placement happens in the same call but does not gate the
// returned completion time — this is the paper's commit path (Figure 4).
// Safe for concurrent callers (each TCP connection in internal/server is
// one): compression and hashing run before any lock is taken, and the
// commit runs on the volume's lane.
func (a *Array) WriteAt(at sim.Time, vol VolumeID, off int64, data []byte) (sim.Time, error) {
	prep, err := a.prepareWrite(off, data)
	if err != nil {
		return at, err
	}
	return a.commitWriteLane(at, vol, off, data, prep)
}

// findDuplicateLocked looks every block hash up in the recent index and the
// persistent dedup relation, byte-verifies the first candidate that pans
// out, and extends it into a run (§4.7). hashes are part's precomputed
// block hashes. Caller holds mu.
func (a *Array) findDuplicateLocked(at sim.Time, part []byte, hashes []uint64) (dedup.Run, sim.Time, bool) {
	done := at
	fetch := func(c dedup.Candidate) ([]byte, bool) {
		sectors, d, err := a.fetchDurableCBlockLocked(done, c.Segment, c.SegOff, int(c.PhysLen))
		done = d
		if err != nil {
			return nil, false
		}
		return sectors, true
	}
	for i, h := range hashes {
		if cand, ok := a.recent.Lookup(h); ok {
			if run, ok := dedup.ExtendAnchor(part, i, cand, fetch); ok {
				return run, done, true
			}
		}
		f, ok, d, err := a.pyr[relation.IDDedup].Get(done, []uint64{h})
		done = d
		if err != nil || !ok {
			continue
		}
		row := relation.DedupFromFact(f)
		cand := dedup.Candidate{Segment: row.Segment, SegOff: row.SegOff, PhysLen: row.PhysLen, SectorIdx: row.SectorIdx}
		if run, ok := dedup.ExtendAnchor(part, i, cand, fetch); ok {
			return run, done, true
		}
	}
	return dedup.Run{}, done, false
}

// fetchDurableCBlockLocked reads and decompresses a cblock, but only if its
// segment is SEALED. Cross-references — dedup mappings, flattened chains,
// GC redirects — must only point at sealed segments: those are
// rediscoverable after a crash (checkpoint or AU-trailer scan), whereas an
// unsealed segment's data is re-placed from NVRAM payloads at new
// addresses, which would leave the cross-reference dangling. Caller holds
// mu.
func (a *Array) fetchDurableCBlockLocked(at sim.Time, seg, segOff uint64, physLen int) ([]byte, sim.Time, error) {
	info, ok := a.segInfoLocked(layout.SegmentID(seg))
	if !ok {
		return nil, at, fmt.Errorf("core: dedup candidate in unknown segment %d", seg)
	}
	if !info.Sealed {
		return nil, at, fmt.Errorf("core: dedup candidate not yet sealed")
	}
	return a.readCBlockLocked(at, seg, segOff, physLen)
}

// readCBlockLocked returns the decompressed sectors of a cblock, through
// the DRAM cache. Caller holds mu.
func (a *Array) readCBlockLocked(at sim.Time, seg, segOff uint64, physLen int) ([]byte, sim.Time, error) {
	key := cblockKey{segment: seg, off: int64(segOff)}
	if sectors, ok := a.cblocks.get(key); ok {
		a.stats.CacheHits++
		return sectors, at, nil
	}
	a.stats.CacheMisses++
	frame, done, err := a.readSegmentLocked(at, layout.SegmentID(seg), int64(segOff), physLen)
	if err != nil {
		return nil, done, err
	}
	//lint:ignore taintverify sealed-segment reads are WU-CRC-verified inside ReadRange; an open segment serves only its unflushed stripe from memory (Writer.ReadPending) and its flushed stripes from the drives through readShardRange's unverified branch, with no CRC (ROADMAP item 3(a) records the gap); Unpack fails closed with the error counted
	sectors, err := cblock.Unpack(frame)
	if err != nil {
		a.stats.UnpackErrors.Inc()
		return nil, done, err
	}
	a.cblocks.put(key, physLen, sectors)
	return sectors, done, nil
}
