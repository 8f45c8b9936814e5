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
	var doneBuf [8]sim.Time
	extDone := doneBuf[:0]
	slowest := metaDone
	for _, ext := range exts {
		nb := int(ext.Sectors) * cblock.SectorSize
		d := metaDone
		if !ext.Zero {
			if d, err = a.readExtentLocked(metaDone, ext, out[pos:pos+nb]); err != nil {
				return nil, d, err
			}
		}
		extDone = append(extDone, d)
		slowest = sim.Max(slowest, d)
		pos += nb
	}

	ready := a.hedgeLocked(at, metaDone, slowest, exts, extDone)
	cpuCost := sim.Time(a.cfg.CPUOverhead + a.cfg.CPUPerKiBRead*int64(n)/1024)
	ackAt := a.cpuLocked(ready, cpuCost)

	lat := ackAt - at
	if slowest > metaDone {
		// Reads served from memory say nothing about drive latency.
		a.readTracker.Record(lat)
	}
	a.gov.RecordRead(lat)
	a.stats.Reads++
	a.stats.ReadLatency.Record(lat)
	return out, ackAt, nil
}

// hedgeLocked is §4.4's hedge for a read issued at `at` whose extents were
// issued at metaDone and land at extDone, the last at slowest: once the read
// has been outstanding for the recent drive reads' p95, every extent still
// in flight is raced against a reconstruction from its peers, issued at
// that moment, and the earlier arrival serves it. It returns when the
// read's data is complete. An extent that cost no device time — a cache
// hit, an open segment's pending stripe, a hole — landed at metaDone and is
// never in flight then, so only drive reads hedge. While the SLO governor
// reports the p99.9 budget threatened, the race starts earlier
// (Policy.SLOHedgePercentile) so foreground reads outrank whatever is
// congesting the drives. Caller holds mu.
func (a *Array) hedgeLocked(at, metaDone, slowest sim.Time, exts []medium.Extent, extDone []sim.Time) sim.Time {
	if slowest == metaDone {
		return slowest // no extent waited for a drive: the tracker is not even asked
	}
	after, ok := a.cfg.ReadPolicy.HedgeAfter(a.readTracker, a.gov.Threatened())
	hedgeAt := sim.Max(metaDone, at+after)
	if !ok || slowest <= hedgeAt {
		return slowest
	}
	ready := metaDone
	raced := false
	for i, ext := range exts {
		d := extDone[i]
		if d > hedgeAt {
			// The cblock cache holds what the first arm just read; the
			// second arm goes to the drives, around the home one, or is
			// not issued for want of idle peers.
			_, h, err := a.readSegmentLocked(hedgeAt, layout.SegmentID(ext.Addr.Segment), int64(ext.Addr.SegOff), int(ext.Addr.PhysLen), layout.ReadAroundHome)
			if err == nil {
				raced = true
				d = min(d, h)
			}
		}
		ready = sim.Max(ready, d)
	}
	if raced {
		a.stats.HedgedReads++
	}
	if ready < slowest {
		a.stats.HedgeWins++
	}
	return ready
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
