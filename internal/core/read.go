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

// addrValid reports whether an address fact's target storage exists.
// After a crash, patch-recovered facts may reference a data segment that
// was unsealed when the machine died: its contents were re-placed from
// NVRAM frames (as equal-sequence facts at new addresses) and its AUs
// returned to the allocator. Such stale facts are logically retracted —
// resolution must skip them so the surviving copy wins. Safe with or
// without mu.
func (a *Array) addrValid(r relation.AddrRow) bool {
	info, ok := a.segInfo(layout.SegmentID(r.Segment))
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
// The lookupAdapter methods read only the pyramids and the segment table,
// so they serve ReadAt without mu and GC's flattening with it.
func (l *lookupAdapter) AddrCovering(at sim.Time, med, sector uint64) (relation.AddrRow, bool, sim.Time, error) {
	a := (*Array)(l)
	// Entries may overlap; the newest covering entry wins. A covering
	// entry's key is within MaxCBlockSectors below the sector, so a
	// bounded version scan finds every candidate. Each version is decoded
	// and dropped, so the scan lends them (Visit) rather than cloning.
	lo := uint64(0)
	if sector >= medium.MaxCBlockSectors-1 {
		lo = sector - (medium.MaxCBlockSectors - 1)
	}
	var best relation.AddrRow
	var bestSeq tuple.Seq
	found := false
	done, err := a.pyr[relation.IDAddrs].Visit(at,
		[]uint64{med, lo}, []uint64{med, sector}, true,
		func(f tuple.Fact) bool {
			r := relation.AddrFromFact(f)
			if r.Sector+r.Sectors > sector && (!found || f.Seq > bestSeq) && a.addrValid(r) {
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
func (l *lookupAdapter) AddrCeil(at sim.Time, med, sector uint64) (relation.AddrRow, bool, sim.Time, error) {
	a := (*Array)(l)
	f, ok, done, err := a.pyr[relation.IDAddrs].GetCeil(at, []uint64{med}, sector)
	if err != nil || !ok {
		return relation.AddrRow{}, false, done, err
	}
	return relation.AddrFromFact(f), true, done, nil
}

// MediumFloor returns the medium-table row with the greatest Start ≤
// start.
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
//
// The read holds world in read mode throughout, which keeps every segment
// it resolves to alive, and takes mu only for its closing bookkeeping: the
// hedge, the CPU model, the read tracker, the governor and the histograms.
// Resolution, the cblock cache, segment reads with their CRC checks,
// reconstruction and decompression run beside lane commits and other reads.
func (a *Array) ReadAt(at sim.Time, vol VolumeID, off int64, n int) ([]byte, sim.Time, error) {
	if off%cblock.SectorSize != 0 || n%cblock.SectorSize != 0 || n <= 0 {
		return nil, at, ErrUnaligned
	}
	a.world.RLock()
	defer a.world.RUnlock()
	row, done, err := a.volume(at, vol)
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
			if d, err = a.readExtent(metaDone, ext, out[pos:pos+nb]); err != nil {
				return nil, d, err
			}
		}
		extDone = append(extDone, d)
		slowest = sim.Max(slowest, d)
		pos += nb
	}

	a.mu.Lock()
	defer a.mu.Unlock()
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
			_, h, err := a.readSegment(hedgeAt, layout.SegmentID(ext.Addr.Segment), int64(ext.Addr.SegOff), int(ext.Addr.PhysLen), layout.ReadAroundHome, cblock.Check)
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

// readExtent fills dst from one resolved extent. Safe with or without mu.
func (a *Array) readExtent(at sim.Time, ext medium.Extent, dst []byte) (sim.Time, error) {
	sectors, done, err := a.readCBlock(at, ext.Addr.Segment, ext.Addr.SegOff, int(ext.Addr.PhysLen))
	if err != nil {
		a.stats.ExtentReadErrors.Add(1)
		return done, fmt.Errorf("core: extent read medium=%d sector=%d seg=%d off=%d len=%d depth=%d: %w",
			ext.Addr.Medium, ext.Addr.Sector, ext.Addr.Segment, ext.Addr.SegOff, ext.Addr.PhysLen, ext.Depth, err)
	}
	lo := int(ext.Inner) * cblock.SectorSize
	copy(dst, sectors[lo:lo+len(dst)])
	return done, nil
}

// readCBlock returns the decompressed sectors of a cblock, through the DRAM
// cache. Safe with or without mu: the cache and its counters are under
// rdMu, held only around the lookup and the insert.
func (a *Array) readCBlock(at sim.Time, seg, segOff uint64, physLen int) ([]byte, sim.Time, error) {
	key := cblockKey{segment: seg, off: int64(segOff)}
	a.rdMu.Lock()
	sectors, hit := a.cblocks.lookup(key)
	if hit {
		a.stats.CacheHits++
	} else {
		a.stats.CacheMisses++
	}
	a.rdMu.Unlock()
	if hit {
		return sectors, at, nil
	}
	frame, done, err := a.readSegment(at, layout.SegmentID(seg), int64(segOff), physLen, a.policyMode(), cblock.Check)
	if err != nil {
		return nil, done, err
	}
	// The frame's own CRC checked it inside ReadRange, whether it came from
	// a sealed or an open segment's flushed stripe; a frame that failed was
	// re-read through the unit CRCs or rebuilt around its home drive. An
	// open segment's unflushed stripe is served from memory
	// (Writer.ReadPending). Unpack checks the frame again and fails closed
	// with the error counted.
	sectors, err = cblock.Unpack(frame)
	if err != nil {
		a.stats.UnpackErrors.Add(1)
		return nil, done, err
	}
	a.rdMu.Lock()
	a.cblocks.add(key, physLen, sectors)
	a.rdMu.Unlock()
	return sectors, done, nil
}

// ResolveDepth reports the medium-chain depth a read of the given range
// would traverse — the quantity GC flattening keeps ≤ 2 hops / 3 cblock
// accesses (§4.6). Used by tests and the benchmark. Like ReadAt, it holds
// world in read mode and never takes mu.
func (a *Array) ResolveDepth(at sim.Time, vol VolumeID, off int64, n int) (int, sim.Time, error) {
	a.world.RLock()
	defer a.world.RUnlock()
	row, done, err := a.volume(at, vol)
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
