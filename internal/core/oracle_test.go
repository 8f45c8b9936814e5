package core

import (
	"testing"

	"purity/internal/medium"
	"purity/internal/relation"
	"purity/internal/tuple"
)

// lookupOracle is ROADMAP item 3's safety net: the address map and medium
// table as plain slices, and sector resolution stated in a dozen lines —
// the newest valid, non-elided address fact covering the sector, else the
// same question one hop down the medium chain. It is filled by unbounded
// scans (whole-page decode, no window, no seek, no floor or ceiling query),
// so it shares nothing with the bounded lookups it checks except the merge
// loop. Whatever the read path's lookup becomes — seek, fences, a floor
// query — it has to agree with this.
type lookupOracle struct {
	addrs   map[uint64][]oracleAddr         // by medium: every live version
	mediums map[uint64][]relation.MediumRow // by source medium: newest version per start
}

type oracleAddr struct {
	seq tuple.Seq
	row relation.AddrRow
}

func newLookupOracle(t *testing.T, a *Array) *lookupOracle {
	t.Helper()
	o := &lookupOracle{addrs: map[uint64][]oracleAddr{}, mediums: map[uint64][]relation.MediumRow{}}
	a.mu.Lock()
	defer a.mu.Unlock()
	_, err := a.pyr[relation.IDAddrs].ScanVersions(0, nil, nil, func(f tuple.Fact) bool {
		if r := relation.AddrFromFact(f); a.addrValidLocked(r) {
			o.addrs[r.Medium] = append(o.addrs[r.Medium], oracleAddr{f.Seq, r})
		}
		return true
	})
	if err != nil {
		t.Fatalf("oracle: address scan: %v", err)
	}
	_, err = a.pyr[relation.IDMediums].Scan(0, nil, nil, func(f tuple.Fact) bool {
		r := relation.MediumFromFact(f)
		o.mediums[r.Source] = append(o.mediums[r.Source], r)
		return true
	})
	if err != nil {
		t.Fatalf("oracle: medium scan: %v", err)
	}
	return o
}

// resolve returns the extent one sector is served from: Zero, or the
// address row, the sector's index within its cblock, and the hops taken.
func (o *lookupOracle) resolve(med, sector uint64) medium.Extent {
	for depth := 0; depth <= 32; depth++ {
		var best *oracleAddr
		for i := range o.addrs[med] {
			e := &o.addrs[med][i]
			if e.row.Sector <= sector && sector < e.row.Sector+e.row.Sectors && (best == nil || e.seq > best.seq) {
				best = e
			}
		}
		if best != nil {
			return medium.Extent{Addr: best.row, Inner: best.row.Inner + sector - best.row.Sector, Sectors: 1, Depth: depth}
		}
		var floor *relation.MediumRow
		for i := range o.mediums[med] {
			m := &o.mediums[med][i]
			if m.Start <= sector && (floor == nil || m.Start > floor.Start) {
				floor = m
			}
		}
		if floor == nil || floor.End < sector || floor.Target == relation.NoMedium {
			return medium.Extent{Zero: true, Sectors: 1, Depth: depth}
		}
		med, sector = floor.Target, floor.TargetOff+sector-floor.Start
	}
	return medium.Extent{Depth: -1} // a cycle; matches nothing
}

// checkLookupOracle resolves the given sectors of a volume through the read
// path's lookups and through the oracle, and fails on the first difference.
func checkLookupOracle(t *testing.T, a *Array, o *lookupOracle, vol VolumeID, sectors []uint64, where string) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	row, _, err := a.volumeLocked(0, vol)
	if err != nil {
		t.Fatalf("%s: volume %d: %v", where, vol, err)
	}
	for _, s := range sectors {
		if s >= row.SizeSectors {
			continue
		}
		exts, _, err := medium.ResolveAll(0, (*lookupAdapter)(a), row.Medium, s, 1)
		if err != nil {
			t.Fatalf("%s: volume %d sector %d: %v", where, vol, s, err)
		}
		if want := o.resolve(row.Medium, s); len(exts) != 1 || exts[0] != want {
			t.Fatalf("%s: volume %d (medium %d) sector %d resolves to\n  %+v\nthe oracle says\n  %+v",
				where, vol, row.Medium, s, exts, want)
		}
	}
}
