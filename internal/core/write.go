package core

import (
	"fmt"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
)

// The write path runs in §4.7's order — hash every 512 B block, look every
// hash up, byte-verify and extend the match, store what is left — split
// into two halves so parallel clients only serialize on the work that truly
// needs ordering (§3.2: monotonic facts need "almost no cross-core
// synchronization"):
//
//   1. prepareWrite — pure CPU, no locks: split into cblock extents and
//      hash each extent's 512 B blocks (dedup.HashBlocks). Extents fan out
//      across the shared worker pool.
//   2. commitWriteLane (lane.go) — on the volume's commit lane: volume
//      lookup and, per extent, the dedup candidate search under a brief mu
//      section, then compression (cblock.Pack) of only the bytes dedup
//      left, with no lock but the world read lock held, segment placement
//      under the slot mutex, sequence allocation from the shared atomic
//      source; then the group NVRAM commit and fact application.
//
// Both halves are deterministic for a sequential caller: stage 1 is a
// function of the data alone, and one caller's commits run one at a time
// in issue order (DESIGN.md invariant 8). Pack charges no simulated time,
// so where it runs on the wall clock is invisible to the device model.

// preparedExtent is one cblock-sized extent of a write: its bytes and the
// hash of every 512 B block (per-block, so any sub-range of the extent
// reuses a slice of them). frame is the packed whole extent and starts
// nil: it exists only once the duplicate search has missed on this extent
// or on an earlier one of the same write (packExtents), and serves only
// the whole-extent literal case — a dedup hit stores a smaller remainder,
// packed on placement.
type preparedExtent struct {
	sectorOff uint64 // sector offset within the write
	part      []byte
	frame     []byte
	hashes    []uint64
}

// prepareWrite validates alignment and runs the lock-free CPU stage: split
// and hash. A single-extent write hashes inline and allocates nothing but
// its extent and hash slices.
func (a *Array) prepareWrite(off int64, data []byte) ([]preparedExtent, error) {
	if off%cblock.SectorSize != 0 || len(data)%cblock.SectorSize != 0 || len(data) == 0 {
		return nil, ErrUnaligned
	}
	exts, err := cblock.SplitWrite(len(data))
	if err != nil {
		return nil, err
	}
	prep := make([]preparedExtent, len(exts))
	for i, ext := range exts {
		prep[i] = preparedExtent{
			sectorOff: uint64(ext.Offset) / cblock.SectorSize,
			part:      data[ext.Offset : ext.Offset+ext.Len],
		}
	}
	if len(prep) == 1 {
		prep[0].hashes = dedup.HashBlocks(prep[0].part)
		return prep, nil
	}
	tasks := make([]func(), len(prep))
	for i := range prep {
		pe := &prep[i]
		tasks[i] = func() { pe.hashes = dedup.HashBlocks(pe.part) }
	}
	a.pool.Run(tasks...)
	return prep, nil
}

// packExtents packs the whole-extent frame of every extent in rest, across
// the worker pool. placeCBlockLane calls it when the duplicate search
// misses on rest[0] and no frame exists yet: extents of one write miss
// together (unique data), so a large unique write packs all its extents in
// parallel here, an all-duplicate write never gets here, and a later
// extent that hits after all drops its frame. Called with no lock but the
// world read lock held.
func (a *Array) packExtents(rest []preparedExtent) error {
	if len(rest) == 1 {
		return a.packExtent(&rest[0])
	}
	errs := make([]error, len(rest))
	tasks := make([]func(), len(rest))
	for i := range rest {
		i := i
		tasks[i] = func() { errs[i] = a.packExtent(&rest[i]) }
	}
	a.pool.Run(tasks...)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// packExtent packs one extent's frame (a method, not a closure, so the
// single-extent write allocates nothing to get here).
func (a *Array) packExtent(pe *preparedExtent) (err error) {
	a.stats.PackedBytes.Add(int64(len(pe.part)))
	pe.frame, err = cblock.Pack(pe.part, a.cfg.CompressionEnabled)
	return err
}

// WriteAt writes data to a volume at a byte offset (both sector-aligned).
// The write is acknowledged when its facts and frames are durable in
// NVRAM; segment placement happens in the same call but does not gate the
// returned completion time — this is the paper's commit path (Figure 4).
// Safe for concurrent callers (each TCP connection in internal/server is
// one): hashing runs before any lock is taken, and the commit runs on the
// volume's lane.
//
// WriteAt keeps nothing of data once it returns: what it stores is the
// packed cblock frame (cblock.Pack copies into a new frame), the NVRAM
// record carries that frame, and the cblock cache fills only on reads. The
// caller may reuse data at once — the server passes a slice of a pooled
// request body (TestWriteAtKeepsNoCallerBuffer pins this).
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
		sectors, d, err := a.fetchDurableCBlock(done, c.Segment, c.SegOff, int(c.PhysLen))
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

// fetchDurableCBlock reads and decompresses a cblock, but only if its
// segment is SEALED. Cross-references — dedup mappings, flattened chains,
// GC redirects — must only point at sealed segments: those are
// rediscoverable after a crash (checkpoint or AU-trailer scan), whereas an
// unsealed segment's data is re-placed from NVRAM frames at new
// addresses, which would leave the cross-reference dangling. Safe with or
// without mu.
func (a *Array) fetchDurableCBlock(at sim.Time, seg, segOff uint64, physLen int) ([]byte, sim.Time, error) {
	info, ok := a.segInfo(layout.SegmentID(seg))
	if !ok {
		return nil, at, fmt.Errorf("core: dedup candidate in unknown segment %d", seg)
	}
	if !info.Sealed {
		return nil, at, fmt.Errorf("core: dedup candidate not yet sealed")
	}
	return a.readCBlock(at, seg, segOff, physLen)
}
