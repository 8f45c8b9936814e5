package core

import (
	"fmt"
	"sort"

	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// SectorRange is a run of sectors, for replication diffs.
type SectorRange struct {
	Sector  uint64
	Sectors uint64
}

// ChangedExtents returns the sector ranges of newSnap that differ from
// oldSnap, computed from metadata alone: every write since oldSnap landed
// on a medium in the chain between the two snapshots' mediums, so the union
// of those mediums' address entries is exactly the changed set. oldSnap of
// 0 means "everything written" (first replication round).
//
// This is what makes medium-based snapshots good replication sources
// (§3.4): the diff costs index scans, not data reads.
func (a *Array) ChangedExtents(at sim.Time, newSnap, oldSnap VolumeID) ([]SectorRange, sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	newRow, done, err := a.volume(at, newSnap)
	if err != nil {
		return nil, done, err
	}
	stop := relation.NoMedium
	if oldSnap != 0 {
		oldRow, d, err := a.volume(done, oldSnap)
		done = d
		if err != nil {
			return nil, done, err
		}
		stop = oldRow.Medium
	}

	// Walk the chain from the new snapshot's medium down to (exclusive)
	// the old snapshot's medium, gathering every address entry.
	var ranges []SectorRange
	cur := newRow.Medium
	for hops := 0; cur != stop && cur != relation.NoMedium; hops++ {
		if hops > 64 {
			return nil, done, fmt.Errorf("core: snapshot chain from %d never reaches %d", newRow.Medium, stop)
		}
		d, err := a.pyr[relation.IDAddrs].Scan(done,
			[]uint64{cur, 0}, []uint64{cur, ^uint64(0)},
			func(f tuple.Fact) bool {
				r := relation.AddrFromFact(f)
				ranges = append(ranges, SectorRange{Sector: r.Sector, Sectors: r.Sectors})
				return true
			})
		done = d
		if err != nil {
			return nil, done, err
		}
		row, ok, d, err := a.pyr[relation.IDMediums].GetFloor(done, []uint64{cur}, 0)
		done = d
		if err != nil {
			return nil, done, err
		}
		if !ok {
			break
		}
		cur = relation.MediumFromFact(row).Target
	}
	return mergeRanges(ranges), done, nil
}

// mergeRanges unions overlapping or adjacent sector ranges.
func mergeRanges(in []SectorRange) []SectorRange {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool { return in[i].Sector < in[j].Sector })
	out := in[:1]
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if r.Sector <= last.Sector+last.Sectors {
			if end := r.Sector + r.Sectors; end > last.Sector+last.Sectors {
				last.Sectors = end - last.Sector
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
