package core

import (
	"fmt"
	"sync"

	"purity/internal/cblock"
	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/pyramid"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// The write path runs in §4.7's order — hash every 512 B block, look every
// hash up, byte-verify and extend the match, store what is left — split
// into two halves so parallel clients only serialize on the work that truly
// needs ordering (§3.2: monotonic facts need "almost no cross-core
// synchronization"). Both halves run on the goroutine that issued the
// write; concurrent writers are what use every core:
//
//   1. prepareWrite — pure CPU, no locks: split into cblock extents and
//      hash each extent's 512 B blocks (dedup.AppendHashBlocks).
//   2. commitWriteLane (lane.go) — on the volume's commit lane: volume
//      lookup and, per extent, the dedup candidate search, then compression
//      (cblock.AppendPack) of only the bytes dedup left, where they are
//      placed, both with no lock but the world read lock held, segment
//      placement under the slot mutex, sequence allocation from the shared
//      atomic source; then the NVRAM commit and fact application under mu,
//      which also counts the search's outcome.
//
// Both halves are deterministic for a sequential caller: stage 1 is a
// function of the data alone, and one caller's commits run one at a time
// in issue order (DESIGN.md invariant 8). Pack charges no simulated time,
// so where it runs on the wall clock is invisible to the device model.

// preparedExtent is one cblock-sized extent of a write: its bytes and the
// hash of every 512 B block (per-block, so any sub-range of the extent
// reuses a slice of them).
type preparedExtent struct {
	sectorOff uint64 // sector offset within the write
	part      []byte
	hashes    []uint64
}

// writeScratch is what one write borrows for the length of its commit:
// every buffer whose bytes are copied elsewhere before WriteAt returns.
// The segio append copies each frame into its stripe, the NVRAM append
// copies the record into the log, and the memtable copies each fact's
// header. What the memtable keeps — the facts' Cols — is not borrowed:
// factCols carves them from one allocation per write. WriteAt takes a
// scratch from writeScratchPool and puts it back once, after the commit
// returns on whichever path, so nothing in it outlives the write.
type writeScratch struct {
	prep   []preparedExtent
	hashes []uint64     // prep's block hashes, back to back
	w      laneWrite    // its chunks are reused
	dedup  []tuple.Fact // the chunks' dedup fact headers, back to back
	frames []byte       // the chunks' packed frames, back to back
	rec    []byte       // the write's NVRAM record

	// batch is the duplicate search's lookups in the dedup relation, one
	// extent at a time.
	batch pyramid.Batch

	// cols is the write's own: the Cols of its facts, which the memtable
	// keeps. colsWant is what the rest of the write needs if every extent
	// left is a literal miss, so a write of unique data allocates it once.
	cols     []uint64
	colsWant int
}

// factCols returns n columns for one of the write's facts, capped so no
// fact can grow into its neighbour.
func (sc *writeScratch) factCols(n int) []uint64 {
	if cap(sc.cols)-len(sc.cols) < n {
		sc.cols = make([]uint64, 0, max(n, sc.colsWant))
	}
	i := len(sc.cols)
	sc.cols = sc.cols[:i+n]
	sc.colsWant -= n
	return sc.cols[i : i+n : i+n]
}

var writeScratchPool = sync.Pool{New: func() any { return new(writeScratch) }}

// reset clears what a write left in sc — the caller's bytes, the facts the
// memtable now holds — keeping its buffers' capacity, and returns sc for
// the pool.
func (sc *writeScratch) reset() *writeScratch {
	clear(sc.prep)
	clear(sc.w.chunks)
	clear(sc.dedup)
	sc.batch.Reset()
	*sc = writeScratch{
		prep:   sc.prep[:0],
		hashes: sc.hashes[:0],
		w:      laneWrite{chunks: sc.w.chunks[:0]},
		dedup:  sc.dedup[:0],
		frames: sc.frames[:0],
		rec:    sc.rec[:0],
		batch:  sc.batch,
	}
	return sc
}

// prepareWrite runs the lock-free CPU stage of a validated write into sc:
// split and hash.
func (a *Array) prepareWrite(sc *writeScratch, data []byte) {
	exts, _ := cblock.SplitWrite(len(data)) // WriteAt validated the length
	for _, ext := range exts {
		part := data[ext.Offset : ext.Offset+ext.Len]
		h := len(sc.hashes)
		sc.hashes = dedup.AppendHashBlocks(sc.hashes, part)
		hashes := sc.hashes[h:len(sc.hashes):len(sc.hashes)]
		sc.prep = append(sc.prep, preparedExtent{
			sectorOff: uint64(ext.Offset) / cblock.SectorSize,
			part:      part,
			hashes:    hashes,
		})
		sc.colsWant += relation.AddrsSchema.Cols
		if a.cfg.DedupEnabled {
			sc.colsWant += relation.DedupSchema.Cols * dedup.Recorded(len(hashes), a.cfg.DedupSampling)
		}
	}
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
// packed cblock frame, which the segio append copies into its stripe; the
// NVRAM record carries a copy of that frame; and the cblock cache fills
// only on reads. The caller may reuse data at once — the server passes a
// slice of a pooled request body (TestWriteAtKeepsNoCallerBuffer pins
// this).
func (a *Array) WriteAt(at sim.Time, vol VolumeID, off int64, data []byte) (sim.Time, error) {
	if off%cblock.SectorSize != 0 || len(data)%cblock.SectorSize != 0 || len(data) == 0 {
		return at, ErrUnaligned
	}
	sc := writeScratchPool.Get().(*writeScratch)
	a.prepareWrite(sc, data)
	done, err := a.commitWriteLane(sc, at, vol, off, data)
	writeScratchPool.Put(sc.reset())
	return done, err
}

// findDuplicate looks every block hash up in the recent index and the
// persistent dedup relation, byte-verifies the first candidate that pans
// out, and extends it into a run (§4.7). hashes are part's precomputed
// block hashes; b is the write's batch, which reads the relation's
// memtable once for all of them and probes its patches for a hash only
// when the search reaches it. It needs no a.mu, only world held shared:
// the pyramid's readers are safe beside its inserts, the recent index
// locks itself, fetchDurableCBlock is correct with or without a.mu, and
// what would change a candidate under it — GC, background dedup, flush and
// merge — holds world exclusively.
func (a *Array) findDuplicate(at sim.Time, part []byte, hashes []uint64, b *pyramid.Batch) (dedup.Run, sim.Time, bool) {
	a.pyr[relation.IDDedup].GetBatch(b, hashes)
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
		f, ok, d, err := b.Get(done, i)
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
