// Package medium implements the resolution algorithm over Purity's medium
// table (§3.4, §4.5, Figure 6 of the paper). Mediums are coarse-grained
// virtual containers: every user-visible block is addressed by
// (medium, offset), and the medium table maps un-overwritten ranges of one
// medium onto another. Snapshots and clones are O(1) medium-table inserts;
// reads chase the chain, which the garbage collector keeps at most three
// cblock accesses deep.
package medium

import (
	"fmt"

	"purity/internal/relation"
	"purity/internal/sim"
)

// Lookup is the resolver's window onto the metadata pyramids. The engine
// implements it with range queries over the address map and medium table
// relations.
//
// Address-map entries are ranges that may overlap (a small overwrite lands
// inside an older, larger cblock's range); the winner for any sector is the
// covering entry with the highest sequence number, which AddrCovering must
// return. Entries span at most MaxCBlockSectors sectors, so implementations
// only need to examine keys in (sector-MaxCBlockSectors, sector].
type Lookup interface {
	// AddrCovering returns the newest (highest-seq) entry whose sector
	// range covers the given sector.
	AddrCovering(at sim.Time, medium, sector uint64) (relation.AddrRow, bool, sim.Time, error)
	// AddrCeil returns the entry with the least starting sector ≥ sector
	// (any version).
	AddrCeil(at sim.Time, medium, sector uint64) (relation.AddrRow, bool, sim.Time, error)
	// MediumFloor returns the medium-table row with the greatest Start ≤
	// start for the medium. Medium-table rows never overlap.
	MediumFloor(at sim.Time, medium, start uint64) (relation.MediumRow, bool, sim.Time, error)
}

// MaxCBlockSectors bounds how far below a sector an address entry covering
// it can start — the cblock size cap (§4.6).
const MaxCBlockSectors = 64

// Extent describes how a contiguous run of sectors is served.
type Extent struct {
	Zero    bool             // unwritten space: reads return zeros
	Addr    relation.AddrRow // the cblock mapping (valid when !Zero)
	Inner   uint64           // first sector within the cblock
	Sectors uint64           // run length
	Depth   int              // mediums traversed to resolve (0 = direct hit)
}

// maxDepth bounds chain traversal. GC flattens chains so reads touch at
// most 3 cblocks (§4.6); a deeper chain mid-flatten still resolves, but a
// chain this deep indicates a metadata cycle.
const maxDepth = 32

// resolve resolves sectors [sector, sector+maxSectors) of a medium into the
// longest contiguous extent served one way; ResolveAll loops over it, extent
// by extent. depth counts the chain hops taken so far.
func resolve(at sim.Time, lk Lookup, medium, sector, maxSectors uint64, depth int) (Extent, sim.Time, error) {
	if depth > maxDepth {
		return Extent{}, at, fmt.Errorf("medium: chain deeper than %d at medium %d", maxDepth, medium)
	}
	if maxSectors == 0 {
		return Extent{Zero: true, Sectors: 0, Depth: depth}, at, nil
	}
	done := at

	// 1. A cblock written directly to this medium wins: the newest entry
	// covering the sector.
	e, ok, d, err := lk.AddrCovering(done, medium, sector)
	done = d
	if err != nil {
		return Extent{}, done, err
	}
	if ok {
		off := sector - e.Sector
		n := e.Sectors - off
		if n > maxSectors {
			n = maxSectors
		}
		// A newer entry may begin inside this one's range and shadow its
		// tail; split at the next entry boundary and re-resolve there.
		// (Conservative: the boundary may belong to an older entry, in
		// which case the follow-up resolution just re-picks this one.)
		c, ok2, d, err := lk.AddrCeil(done, medium, sector+1)
		done = d
		if err != nil {
			return Extent{}, done, err
		}
		if ok2 && c.Sector-sector < n {
			n = c.Sector - sector
		}
		return Extent{Addr: e, Inner: e.Inner + off, Sectors: n, Depth: depth}, done, nil
	}

	// 2. The run ends where the next direct cblock begins.
	bound := maxSectors
	c, ok, d, err := lk.AddrCeil(done, medium, sector+1)
	done = d
	if err != nil {
		return Extent{}, done, err
	}
	if ok && c.Sector-sector < bound {
		bound = c.Sector - sector
	}

	// 3. Fall through to the underlying medium, if any.
	row, ok, d, err := lk.MediumFloor(done, medium, sector)
	done = d
	if err != nil {
		return Extent{}, done, err
	}
	if !ok || row.End < sector || row.Target == relation.NoMedium {
		if ok && row.End >= sector && row.End-sector+1 < bound {
			bound = row.End - sector + 1
		}
		return Extent{Zero: true, Sectors: bound, Depth: depth}, done, nil
	}
	if row.End-sector+1 < bound {
		bound = row.End - sector + 1
	}
	sub, done, err := resolve(done, lk, row.Target, row.TargetOff+(sector-row.Start), bound, depth+1)
	return sub, done, err
}

// ResolveAll resolves a whole range into extents.
func ResolveAll(at sim.Time, lk Lookup, medium, sector, sectors uint64) ([]Extent, sim.Time, error) {
	var out []Extent
	done := at
	for sectors > 0 {
		ext, d, err := resolve(done, lk, medium, sector, sectors, 0)
		done = d
		if err != nil {
			return nil, done, err
		}
		if ext.Sectors == 0 {
			return nil, done, fmt.Errorf("medium: resolver made no progress at medium %d sector %d", medium, sector)
		}
		out = append(out, ext)
		sector += ext.Sectors
		sectors -= ext.Sectors
	}
	return out, done, nil
}

// MaxDepth returns the deepest resolution among extents — the quantity the
// GC's flattening keeps ≤ 2 levels (3 cblock accesses, §4.6).
func MaxDepth(exts []Extent) int {
	max := 0
	for _, e := range exts {
		if e.Depth > max {
			max = e.Depth
		}
	}
	return max
}
