package core

import (
	"sort"

	"purity/internal/elide"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/ssd"
	"purity/internal/telemetry"
	"purity/internal/tuple"
)

// elidePredicate converts a persisted elide row to its in-memory form.
func elidePredicate(row relation.ElideRow) elide.Predicate {
	return elide.Predicate{Col: int(row.Col), Lo: row.Lo, Hi: row.Hi, MaxSeq: row.MaxSeq}
}

// StatsSnapshot is the engine's public counter view.
type StatsSnapshot struct {
	Counters
	Reduction      telemetry.ReductionSnapshot
	ReductionRatio float64
	SegReadErrors  int64
	UnpackErrors   int64
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
	ProvisionedBytes int64
	FlashStats       ssd.Stats
	NVRAMUsed        int64
	NVRAMAppends     int64
}

// Stats returns a snapshot of the engine's counters. The histogram pointers
// are live (they keep accumulating); callers wanting a frozen view should
// query percentiles immediately.
func (a *Array) Stats() StatsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return StatsSnapshot{
		Counters:         a.stats.Counters,
		Reduction:        a.stats.Reduction.Snapshot(),
		ReductionRatio:   a.stats.Reduction.Ratio(),
		SegReadErrors:    a.stats.SegReadErrors.Load(),
		UnpackErrors:     a.stats.UnpackErrors.Load(),
		PackedBytes:      a.stats.PackedBytes.Load(),
		DriveStates:      a.driveStates(),
		LostShards:       a.lostShardCount(),
		Segments:         len(a.segMap),
		ProvisionedBytes: a.provisionedLocked(),
		FrontierAUs:      a.alloc.FrontierSize(),
		FreeAUs:          a.alloc.FreeAUs(),
		FlashStats:       a.shelf.AggregateStats(),
		NVRAMUsed:        a.shelf.NVRAM(0).Used(),
		NVRAMAppends:     a.shelf.NVRAM(0).Appends(),
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

// provisionedLocked sums live volume sizes. Caller holds mu.
func (a *Array) provisionedLocked() int64 {
	var total int64
	//lint:ignore errdrop best-effort gauge; a scan error leaves it partial and is already counted by SegReadErrors at the read layer
	_, _ = a.pyr[relation.IDVolumes].Scan(0, nil, nil, func(f tuple.Fact) bool {
		row := relation.VolumeFromFact(f)
		if row.State == relation.VolumeActive {
			total += int64(row.SizeSectors) * 512
		}
		return true
	})
	return total
}

// SegmentInventory lists every known segment with its in-memory liveness
// approximation, for inspection tools.
type SegmentInventory struct {
	ID        uint64
	Sealed    bool
	Stripes   int
	LiveBytes int64
	AUs       int
}

// Segments returns the segment inventory sorted by ID.
func (a *Array) Segments() []SegmentInventory {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]SegmentInventory, 0, len(a.segMap))
	for id := range a.segMap {
		info, _ := a.segInfoLocked(id)
		out = append(out, SegmentInventory{
			ID: uint64(id), Sealed: info.Sealed, Stripes: info.Stripes,
			LiveBytes: a.liveBytes[id], AUs: len(info.AUs),
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
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cblocks.keys()
}

// WarmCBlocks pre-loads cblocks into the DRAM cache — the secondary
// controller applies the primary's warm list after failover. Warming
// failures are ignored (it is only an optimization); the completion time of
// the whole warming pass is returned.
func (a *Array) WarmCBlocks(at sim.Time, keys []WarmKey) sim.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	done := at
	for _, k := range keys {
		if _, d, err := a.readCBlockLocked(at, k.Segment, uint64(k.Off), k.PhysLen); err == nil && d > done {
			done = d
		}
	}
	return done
}
