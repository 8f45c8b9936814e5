package core

import (
	"fmt"

	"purity/internal/cblock"
	"purity/internal/layout"
	"purity/internal/medium"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// lookupAdapter implements medium.Lookup over the metadata pyramids.
type lookupAdapter Array

// addrValidLocked reports whether an address fact's target storage exists.
// After a crash, patch-recovered facts may reference a data segment that
// was unsealed when the machine died: its contents were re-placed from
// NVRAM payloads (as equal-sequence facts at new addresses) and its AUs
// returned to the allocator. Such stale facts are logically retracted —
// resolution must skip them so the surviving copy wins. Caller holds mu.
func (a *Array) addrValidLocked(r relation.AddrRow) bool {
	info, ok := a.segInfoLocked(layout.SegmentID(r.Segment))
	if !ok {
		return false
	}
	if !info.Sealed {
		// Open segment: data is flushed or sits in the pending segio.
		return true
	}
	return int64(r.SegOff)+int64(r.PhysLen) <= int64(info.Stripes)*int64(a.cfg.Layout.StripeDataBytes())
}

// AddrCovering returns the newest address-map entry covering the sector.
// The resolver only runs from read/write paths under the array lock —
// Caller holds mu.
func (l *lookupAdapter) AddrCovering(at sim.Time, med, sector uint64) (relation.AddrRow, bool, sim.Time, error) {
	a := (*Array)(l)
	// Entries may overlap; the newest covering entry wins. A covering
	// entry's key is within MaxCBlockSectors below the sector, so a
	// bounded version scan finds every candidate.
	lo := uint64(0)
	if sector >= medium.MaxCBlockSectors-1 {
		lo = sector - (medium.MaxCBlockSectors - 1)
	}
	var best relation.AddrRow
	var bestSeq tuple.Seq
	found := false
	done, err := a.pyr[relation.IDAddrs].ScanVersions(at,
		[]uint64{med, lo}, []uint64{med, sector},
		func(f tuple.Fact) bool {
			r := relation.AddrFromFact(f)
			if r.Sector+r.Sectors > sector && (!found || f.Seq > bestSeq) && a.addrValidLocked(r) {
				best = r
				bestSeq = f.Seq
				found = true
			}
			return true
		})
	if err != nil {
		return relation.AddrRow{}, false, done, err
	}
	return best, found, done, nil
}

// AddrCeil returns the entry with the least starting sector ≥ sector.
// Caller holds mu.
func (l *lookupAdapter) AddrCeil(at sim.Time, med, sector uint64) (relation.AddrRow, bool, sim.Time, error) {
	a := (*Array)(l)
	f, ok, done, err := a.pyr[relation.IDAddrs].GetCeil(at, []uint64{med}, sector)
	if err != nil || !ok {
		return relation.AddrRow{}, false, done, err
	}
	return relation.AddrFromFact(f), true, done, nil
}

// MediumFloor returns the medium-table row with the greatest Start ≤
// start. Caller holds mu.
func (l *lookupAdapter) MediumFloor(at sim.Time, med, start uint64) (relation.MediumRow, bool, sim.Time, error) {
	a := (*Array)(l)
	f, ok, done, err := a.pyr[relation.IDMediums].GetFloor(at, []uint64{med}, start)
	if err != nil || !ok {
		return relation.MediumRow{}, false, done, err
	}
	return relation.MediumFromFact(f), true, done, nil
}

// ReadAt reads n bytes from a volume at a byte offset (both sector
// aligned). Unwritten ranges read as zeros (thin provisioning). The
// returned completion time covers metadata resolution plus the slowest
// cblock read, with extents fetched in parallel, plus CPU overhead.
func (a *Array) ReadAt(at sim.Time, vol VolumeID, off int64, n int) ([]byte, sim.Time, error) {
	if off%cblock.SectorSize != 0 || n%cblock.SectorSize != 0 || n <= 0 {
		return nil, at, ErrUnaligned
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	row, done, err := a.volumeLocked(at, vol)
	if err != nil {
		return nil, done, err
	}
	startSector := uint64(off) / cblock.SectorSize
	sectors := uint64(n) / cblock.SectorSize
	if startSector+sectors > row.SizeSectors {
		return nil, done, ErrOutOfRange
	}

	exts, metaDone, err := medium.ResolveAll(done, (*lookupAdapter)(a), row.Medium, startSector, sectors)
	if err != nil {
		return nil, metaDone, err
	}

	out := make([]byte, n)
	pos := 0
	// Extents are fetched concurrently: each is issued at metaDone and the
	// read completes when the slowest extent lands.
	slowest := metaDone
	for _, ext := range exts {
		nb := int(ext.Sectors) * cblock.SectorSize
		if ext.Zero {
			pos += nb
			continue
		}
		extDone, err := a.readExtentLocked(metaDone, ext, out[pos:pos+nb])
		if err != nil {
			return nil, extDone, err
		}
		if extDone > slowest {
			slowest = extDone
		}
		pos += nb
	}
	cpuCost := sim.Time(a.cfg.CPUOverhead + a.cfg.CPUPerKiBRead*int64(n)/1024)
	ackAt := a.cpuLocked(slowest, cpuCost)

	lat := ackAt - at
	// Hedging (§4.4): a read beyond the recent p95 races a reconstruction.
	// In simulation the race is modelled as re-serving the slowest extent
	// through reconstruction-preferring reads and taking the minimum. While
	// the SLO governor reports the p99.9 budget threatened, hedging kicks
	// in earlier (Policy.SLOHedgePercentile) so foreground reads outrank
	// whatever is congesting the drives.
	if a.cfg.ReadPolicy.ShouldHedgeUnder(a.readTracker, lat, a.gov.Threatened()) {
		a.stats.HedgedReads++
		// A hedged reconstruction reads K shards in parallel from (mostly)
		// idle drives; bound its benefit by replaying the extent reads with
		// busy avoidance forced on.
		redo := metaDone
		pos = 0
		for _, ext := range exts {
			nb := int(ext.Sectors) * cblock.SectorSize
			if !ext.Zero {
				if d, err := a.readExtentLocked(metaDone, ext, out[pos:pos+nb]); err == nil && d > redo {
					redo = d
				}
			}
			pos += nb
		}
		if hedged := redo + cpuCost; hedged < ackAt {
			ackAt = hedged
			lat = ackAt - at
		}
	}
	a.readTracker.Record(lat)
	a.gov.RecordRead(lat)
	a.stats.Reads++
	a.stats.ReadLatency.Record(lat)
	return out, ackAt, nil
}

// readExtentLocked fills dst from one resolved extent. Caller holds mu.
func (a *Array) readExtentLocked(at sim.Time, ext medium.Extent, dst []byte) (sim.Time, error) {
	sectors, done, err := a.readCBlockLocked(at, ext.Addr.Segment, ext.Addr.SegOff, int(ext.Addr.PhysLen))
	if err != nil {
		a.stats.ExtentReadErrors.Inc()
		return done, fmt.Errorf("core: extent read medium=%d sector=%d seg=%d off=%d len=%d depth=%d: %w",
			ext.Addr.Medium, ext.Addr.Sector, ext.Addr.Segment, ext.Addr.SegOff, ext.Addr.PhysLen, ext.Depth, err)
	}
	lo := int(ext.Inner) * cblock.SectorSize
	copy(dst, sectors[lo:lo+len(dst)])
	return done, nil
}

// ResolveDepth reports the medium-chain depth a read of the given range
// would traverse — the quantity GC flattening keeps ≤ 2 hops / 3 cblock
// accesses (§4.6). Used by tests and the flattening trigger.
func (a *Array) ResolveDepth(at sim.Time, vol VolumeID, off int64, n int) (int, sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	row, done, err := a.volumeLocked(at, vol)
	if err != nil {
		return 0, done, err
	}
	exts, done, err := medium.ResolveAll(done, (*lookupAdapter)(a), row.Medium,
		uint64(off)/cblock.SectorSize, uint64(n)/cblock.SectorSize)
	if err != nil {
		return 0, done, err
	}
	return medium.MaxDepth(exts), done, nil
}
