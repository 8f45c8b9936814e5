package core

import (
	"sort"

	"purity/internal/elide"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/ssd"
	"purity/internal/tuple"
)

// elidePredicate converts a persisted elide row to its in-memory form.
func elidePredicate(row relation.ElideRow) elide.Predicate {
	return elide.Predicate{Col: int(row.Col), Lo: row.Lo, Hi: row.Hi, MaxSeq: row.MaxSeq}
}

// StatsSnapshot is the engine's public counter view. Marshalled as JSON it
// is the whole engine: the "engine" object of the stats document.
type StatsSnapshot struct {
	Counters
	// ReductionRatio is LogicalBytes / PhysicalBytes (0 before any byte is
	// stored): thin provisioning is left out, as in the paper's 5.4×.
	ReductionRatio   float64
	SegReadErrors    int64
	UnpackErrors     int64
	ExtentReadErrors int64
	// PackedBytes is the input foreground writes handed to the compressor.
	PackedBytes int64

	// DriveStates mirrors the shelf's health state machine, indexed by
	// drive; LostShards counts shards currently served from parity.
	DriveStates []string
	LostShards  int

	Segments    int
	FrontierAUs int
	FreeAUs     int64
	// ProvisionedBytes sums live volume sizes — the thin-provisioning
	// headline (the paper's customers provision ~12x physical on average).
	// It is an aggregate the volume operations keep, not a catalog scan, so
	// taking a snapshot reads nothing through the device model.
	ProvisionedBytes int64
	FlashStats       ssd.Stats
	NVRAMUsed        int64
	NVRAMAppends     int64

	// PyramidFlushRows and PyramidMergeRows sum, over the relations, the
	// rows flushes wrote and the rows merges read (Pyramid.RowCounts).
	PyramidFlushRows int64
	PyramidMergeRows int64

	// Lanes are the commit lanes' counters (LaneTelemetry).
	Lanes []LaneStat
	// SLOBudget, SLOP999, SLOThreatened and SLODeferrals are the
	// tail-latency governor's state (§4.4).
	SLOBudget, SLOP999 sim.Time
	SLOThreatened      bool
	SLODeferrals       int64
}

// Stats returns a snapshot of the engine's counters. The histogram pointers
// are live (they keep accumulating); callers wanting a frozen view should
// query percentiles immediately. It reads no page and no drive: a snapshot
// must not move the device model it reports on.
func (a *Array) Stats() StatsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rdMu.Lock()
	counters := a.stats.Counters
	a.rdMu.Unlock()
	var ratio float64
	if counters.PhysicalBytes > 0 {
		ratio = float64(counters.LogicalBytes) / float64(counters.PhysicalBytes)
	}
	var flushRows, mergeRows int64
	for _, p := range a.pyr {
		f, m := p.RowCounts()
		flushRows += f
		mergeRows += m
	}
	return StatsSnapshot{
		Counters:         counters,
		ReductionRatio:   ratio,
		SegReadErrors:    a.stats.SegReadErrors.Load(),
		UnpackErrors:     a.stats.UnpackErrors.Load(),
		ExtentReadErrors: a.stats.ExtentReadErrors.Load(),
		PackedBytes:      a.stats.PackedBytes.Load(),
		DriveStates:      a.driveStates(),
		LostShards:       a.lostShardCount(),
		Segments:         len(a.segMap),
		ProvisionedBytes: a.provisioned,
		FrontierAUs:      a.alloc.FrontierSize(),
		FreeAUs:          a.alloc.FreeAUs(),
		FlashStats:       a.shelf.AggregateStats(),
		NVRAMUsed:        a.shelf.NVRAM(0).Used(),
		NVRAMAppends:     a.shelf.NVRAM(0).Appends(),
		PyramidFlushRows: flushRows,
		PyramidMergeRows: mergeRows,
		Lanes:            a.LaneTelemetry().Lanes,
		SLOBudget:        a.gov.Budget(),
		SLOP999:          a.gov.P999(),
		SLOThreatened:    a.gov.Threatened(),
		SLODeferrals:     a.gov.Deferrals(),
	}
}

// driveStates renders the shelf's health state machine for snapshots.
func (a *Array) driveStates() []string {
	states := a.shelf.States()
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = s.String()
	}
	return out
}

// lostShardCount counts shards currently marked lost (served from parity).
func (a *Array) lostShardCount() int {
	a.lostMu.Lock()
	defer a.lostMu.Unlock()
	n := 0
	for _, m := range a.lost {
		n += len(m)
	}
	return n
}

// ElideTableSize returns the number of collapsed elide ranges for a
// relation — experiment E5's bound check.
func (a *Array) ElideTableSize(relID uint32) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if et, ok := a.elides[relID]; ok {
		return et.Len()
	}
	return 0
}

// SegmentInventory lists every known segment, for inspection tools. Exact
// live bytes are GC's to compute (GCReport.LiveBytesTotal).
type SegmentInventory struct {
	ID      uint64
	Sealed  bool
	Stripes int
	AUs     int
}

// Segments returns the segment inventory sorted by ID.
func (a *Array) Segments() []SegmentInventory {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SegmentInventory, 0, len(a.segMap))
	for id := range a.segMap {
		info, _ := a.segInfo(id)
		out = append(out, SegmentInventory{
			ID: uint64(id), Sealed: info.Sealed, Stripes: info.Stripes, AUs: len(info.AUs),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ScanMediums streams every live medium-table row, for inspection tools
// and the F6 experiment.
func (a *Array) ScanMediums(at sim.Time, fn func(relation.MediumRow)) (sim.Time, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pyr[relation.IDMediums].Scan(at, nil, nil, func(f tuple.Fact) bool {
		fn(relation.MediumFromFact(f))
		return true
	})
}

// RelationRows returns the persisted+memtable row count of a relation's
// pyramid (shadowed and not-yet-merged versions included) — ablation A1
// uses it to size the dedup index under different sampling rates.
func (a *Array) RelationRows(relID uint32) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.pyr[relID]; ok {
		return p.Rows()
	}
	return 0
}

// CacheWarmKeys exports the hot cblock keys for controller cache warming
// (§4.3). Coldest first, so replaying preserves recency order.
func (a *Array) CacheWarmKeys() []WarmKey {
	a.rdMu.Lock()
	defer a.rdMu.Unlock()
	return a.cblocks.keys()
}

// WarmCBlocks pre-loads cblocks into the DRAM cache — the secondary
// controller applies the primary's warm list after failover. Warming
// failures are ignored (it is only an optimization); the completion time of
// the whole warming pass is returned. Like a read, it holds world in read
// mode and never takes mu.
func (a *Array) WarmCBlocks(at sim.Time, keys []WarmKey) sim.Time {
	a.world.RLock()
	defer a.world.RUnlock()
	done := at
	for _, k := range keys {
		if _, d, err := a.readCBlock(at, k.Segment, uint64(k.Off), k.PhysLen); err == nil && d > done {
			done = d
		}
	}
	return done
}
