package core

import (
	"sort"

	"purity/internal/dedup"
	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// BackgroundDedupReport summarizes one background deduplication pass.
type BackgroundDedupReport struct {
	CBlocksScanned   int
	DuplicatesMerged int
	RefsRewritten    int
	BytesFreed       int64
}

// BackgroundDedup is the deferred pass of §4.7: "as garbage collection
// scans SSDs in the background, it performs a more expensive deduplication
// pass, and deduplicates the blocks we did not have time to process
// earlier." It scans every live cblock in sealed segments, detects whole
// cblocks with identical content, and redirects all references of the
// later copies to the first — after which the duplicates are dead and the
// next GC cycle reclaims their space.
func (a *Array) BackgroundDedup(at sim.Time) (BackgroundDedupReport, sim.Time, error) {
	// The pass commits redirect facts against a liveness computation;
	// quiesce lane commits so neither moves underneath it.
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	var rep BackgroundDedupReport
	done := at

	live, d, err := a.computeLivenessLocked(done)
	if err != nil {
		return rep, d, err
	}
	done = d

	// Deterministic scan order: by segment, then offset.
	segs := make([]layout.SegmentID, 0, len(live))
	for id := range live {
		segs = append(segs, id)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	type loc struct {
		seg     uint64
		off     uint64
		physLen uint64
	}
	canonical := make(map[uint64]loc) // full-content hash -> first copy
	var newFacts []tuple.Fact

	for _, id := range segs {
		info, ok := a.segMap[id]
		if !ok || !info.Sealed {
			continue // open segments are the inline path's business
		}
		offs := make([]uint64, 0, len(live[id]))
		for off := range live[id] {
			offs = append(offs, off)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, off := range offs {
			c := live[id][off]
			sectors, d, err := a.readCBlock(done, uint64(id), off, int(c.physLen))
			done = d
			if err != nil {
				continue // unreadable now; scrub's problem
			}
			rep.CBlocksScanned++
			h := dedup.Hash(sectors)
			first, seen := canonical[h]
			if !seen {
				canonical[h] = loc{seg: uint64(id), off: off, physLen: c.physLen}
				continue
			}
			if first.seg == uint64(id) && first.off == off {
				continue
			}
			// Hash match: byte-verify against the canonical copy before
			// trusting it (§4.7's discipline, same as inline).
			firstSectors, d, err := a.readCBlock(done, first.seg, first.off, int(first.physLen))
			done = d
			if err != nil || len(firstSectors) != len(sectors) {
				continue
			}
			identical := true
			for i := range sectors {
				if sectors[i] != firstSectors[i] {
					identical = false
					break
				}
			}
			if !identical {
				continue // 64-bit hash collision: harmless, skip
			}
			// Redirect every reference of the duplicate to the canonical
			// copy. Inner offsets carry over unchanged: the contents are
			// byte-identical.
			for _, r := range c.refs {
				newFacts = append(newFacts, relation.AddrRow{
					Medium: r.medium, Sector: r.sector,
					Segment: first.seg, SegOff: first.off, PhysLen: first.physLen,
					Inner: r.inner, Sectors: r.sectors,
					Flags: r.flags | relation.AddrFlagDedup,
				}.Fact(a.seqs.Next()))
				rep.RefsRewritten++
			}
			rep.DuplicatesMerged++
			rep.BytesFreed += int64(c.physLen)
		}
	}

	done, err = a.commitFactsLocked(done, relation.IDAddrs, newFacts)
	return rep, done, err
}
