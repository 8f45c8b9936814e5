package medium

import (
	"sort"
	"testing"

	"purity/internal/relation"
	"purity/internal/sim"
)

// memLookup is an in-memory Lookup for tests. Later addAddr calls are
// "newer" (higher seq) for AddrCovering purposes.
type addrEntry struct {
	row relation.AddrRow
	seq int
}

type memLookup struct {
	addrs   map[uint64][]addrEntry          // per medium, insertion order
	mediums map[uint64][]relation.MediumRow // per medium, sorted by Start
	nextSeq int
	calls   int
}

func newMemLookup() *memLookup {
	return &memLookup{addrs: map[uint64][]addrEntry{}, mediums: map[uint64][]relation.MediumRow{}}
}

func (m *memLookup) addAddr(r relation.AddrRow) {
	m.nextSeq++
	m.addrs[r.Medium] = append(m.addrs[r.Medium], addrEntry{row: r, seq: m.nextSeq})
}

func (m *memLookup) addMedium(r relation.MediumRow) {
	l := append(m.mediums[r.Source], r)
	sort.Slice(l, func(i, j int) bool { return l[i].Start < l[j].Start })
	m.mediums[r.Source] = l
}

func (m *memLookup) AddrCovering(at sim.Time, medium, sector uint64) (relation.AddrRow, bool, sim.Time, error) {
	m.calls++
	var best addrEntry
	found := false
	for _, e := range m.addrs[medium] {
		if e.row.Sector <= sector && e.row.Sector+e.row.Sectors > sector {
			if !found || e.seq > best.seq {
				best = e
				found = true
			}
		}
	}
	return best.row, found, at, nil
}

func (m *memLookup) AddrCeil(at sim.Time, medium, sector uint64) (relation.AddrRow, bool, sim.Time, error) {
	m.calls++
	var best relation.AddrRow
	found := false
	for _, e := range m.addrs[medium] {
		if e.row.Sector >= sector && (!found || e.row.Sector < best.Sector) {
			best = e.row
			found = true
		}
	}
	return best, found, at, nil
}

func (m *memLookup) MediumFloor(at sim.Time, medium, start uint64) (relation.MediumRow, bool, sim.Time, error) {
	m.calls++
	var best relation.MediumRow
	found := false
	for _, r := range m.mediums[medium] {
		if r.Start <= start {
			best = r
			found = true
		}
	}
	return best, found, at, nil
}

// figure6 builds the paper's exact medium table (Figure 6): 14 is a
// snapshot of 12; 15 and 18 are clones of part of 12; 20 snapshots 18; 22
// snapshots 21; rows for 22 show the shortcut through to 12.
func figure6() *memLookup {
	lk := newMemLookup()
	rows := []relation.MediumRow{
		{Source: 12, Start: 0, End: 3999, Target: relation.NoMedium, Status: relation.MediumRO},
		{Source: 14, Start: 0, End: 3999, Target: 12, TargetOff: 0, Status: relation.MediumRW},
		{Source: 15, Start: 0, End: 999, Target: 12, TargetOff: 2000, Status: relation.MediumRW},
		{Source: 18, Start: 0, End: 999, Target: 12, TargetOff: 2000, Status: relation.MediumRO},
		{Source: 20, Start: 0, End: 999, Target: 18, TargetOff: 0, Status: relation.MediumRO},
		{Source: 21, Start: 0, End: 999, Target: 20, TargetOff: 0, Status: relation.MediumRO},
		{Source: 22, Start: 0, End: 499, Target: 21, TargetOff: 0, Status: relation.MediumRW},
		{Source: 22, Start: 500, End: 999, Target: 12, TargetOff: 2500, Status: relation.MediumRW},
		{Source: 22, Start: 1000, End: 1999, Target: relation.NoMedium, Status: relation.MediumRW},
	}
	for _, r := range rows {
		lk.addMedium(r)
	}
	return lk
}

func resolveOne(t *testing.T, lk Lookup, medium, sector, max uint64) Extent {
	t.Helper()
	ext, _, err := resolve(0, lk, medium, sector, max, 0)
	if err != nil {
		t.Fatalf("resolve %d@%d: %v", medium, sector, err)
	}
	return ext
}

func TestMediumTableFigure6(t *testing.T) {
	lk := figure6()
	// Data written directly to 12, covering its whole range: one cblock
	// per 8 sectors tagged by SegOff = sector*1000.
	for s := uint64(0); s < 4000; s += 8 {
		lk.addAddr(relation.AddrRow{Medium: 12, Sector: s, Segment: 1, SegOff: s * 1000, Sectors: 8})
	}

	// 14 is a snapshot of 12: reads resolve through one hop.
	// Sector 100 sits at offset 4 of the cblock starting at sector 96.
	ext := resolveOne(t, lk, 14, 100, 8)
	if ext.Zero || ext.Addr.SegOff != 96*1000 || ext.Inner != 4 || ext.Depth != 1 {
		t.Fatalf("14@100 = %+v", ext)
	}

	// 15 is a clone of part of 12 (offset 2000): 15@0 reads 12@2000.
	ext = resolveOne(t, lk, 15, 0, 8)
	if ext.Addr.SegOff != 2000*1000 {
		t.Fatalf("15@0 = %+v", ext)
	}

	// 22 blocks 500-999 shortcut directly to 12 (the paper's "fewer
	// lookups" example): depth 1 despite the nominal 22→21→20→18→12 chain.
	ext = resolveOne(t, lk, 22, 500, 8)
	if ext.Addr.SegOff != 2496*1000 || ext.Inner != 4 {
		t.Fatalf("22@500 = %+v", ext)
	}
	if ext.Depth != 1 {
		t.Fatalf("22@500 depth = %d, want 1 (shortcut)", ext.Depth)
	}

	// 22 blocks 0-499 traverse 21→20→18→12: depth 4.
	ext = resolveOne(t, lk, 22, 100, 8)
	if ext.Addr.SegOff != 2096*1000 || ext.Inner != 4 {
		t.Fatalf("22@100 = %+v", ext)
	}
	if ext.Depth != 4 {
		t.Fatalf("22@100 depth = %d, want 4", ext.Depth)
	}

	// 22 blocks 1000-1999 were never written anywhere: zeros.
	ext = resolveOne(t, lk, 22, 1500, 16)
	if !ext.Zero || ext.Sectors != 16 {
		t.Fatalf("22@1500 = %+v", ext)
	}

	// Writes to 22 shadow the chain.
	lk.addAddr(relation.AddrRow{Medium: 22, Sector: 96, Segment: 9, SegOff: 424242, Sectors: 8})
	ext = resolveOne(t, lk, 22, 96, 8)
	if ext.Zero || ext.Addr.SegOff != 424242 || ext.Depth != 0 {
		t.Fatalf("22@96 after write = %+v", ext)
	}
	// ... and bound neighbouring resolution: 22@90 resolves through the
	// chain but only for 6 sectors, up to the direct write.
	ext = resolveOne(t, lk, 22, 90, 64)
	if ext.Sectors != 6 {
		t.Fatalf("22@90 run = %+v, want 6 sectors", ext)
	}
}

func TestResolvePartialCoverage(t *testing.T) {
	lk := newMemLookup()
	lk.addMedium(relation.MediumRow{Source: 1, Start: 0, End: 9999, Target: relation.NoMedium, Status: relation.MediumRW})
	lk.addAddr(relation.AddrRow{Medium: 1, Sector: 10, Segment: 1, SegOff: 0, Sectors: 8})

	// Hit in the middle of the cblock.
	ext := resolveOne(t, lk, 1, 13, 64)
	if ext.Zero || ext.Inner != 3 || ext.Sectors != 5 {
		t.Fatalf("mid-cblock = %+v", ext)
	}
	// Gap before the entry is zero, bounded by the entry.
	ext = resolveOne(t, lk, 1, 0, 64)
	if !ext.Zero || ext.Sectors != 10 {
		t.Fatalf("gap = %+v", ext)
	}
	// Beyond the medium's row: zero bounded by request.
	ext = resolveOne(t, lk, 1, 20000, 4)
	if !ext.Zero || ext.Sectors != 4 {
		t.Fatalf("past end = %+v", ext)
	}
}

func TestResolveDedupInnerOffsets(t *testing.T) {
	// A dedup reference with nonzero Inner: resolution must add offsets.
	lk := newMemLookup()
	lk.addMedium(relation.MediumRow{Source: 1, Start: 0, End: 999, Target: relation.NoMedium, Status: relation.MediumRW})
	lk.addAddr(relation.AddrRow{Medium: 1, Sector: 100, Segment: 5, SegOff: 777, Inner: 4, Sectors: 8, Flags: relation.AddrFlagDedup})
	ext := resolveOne(t, lk, 1, 103, 2)
	if ext.Inner != 7 || ext.Sectors != 2 {
		t.Fatalf("dedup extent = %+v", ext)
	}
}

func TestResolveAllStitchesExtents(t *testing.T) {
	lk := figure6()
	for s := uint64(0); s < 4000; s += 8 {
		lk.addAddr(relation.AddrRow{Medium: 12, Sector: s, Segment: 1, SegOff: s, Sectors: 8})
	}
	// 22@490..519 spans the 21-chain region and the 12-shortcut region.
	exts, _, err := ResolveAll(0, lk, 22, 490, 30)
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, e := range exts {
		total += e.Sectors
	}
	if total != 30 {
		t.Fatalf("extents cover %d sectors: %+v", total, exts)
	}
	if MaxDepth(exts) != 4 {
		t.Fatalf("MaxDepth = %d", MaxDepth(exts))
	}
}

func TestResolveCycleDetected(t *testing.T) {
	lk := newMemLookup()
	lk.addMedium(relation.MediumRow{Source: 1, Start: 0, End: 99, Target: 2, Status: relation.MediumRO})
	lk.addMedium(relation.MediumRow{Source: 2, Start: 0, End: 99, Target: 1, Status: relation.MediumRO})
	if _, _, err := resolve(0, lk, 1, 5, 1, 0); err == nil {
		t.Fatal("medium cycle resolved without error")
	}
}
