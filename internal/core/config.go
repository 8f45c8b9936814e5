// Package core implements the Purity storage engine: the composition of
// every substrate in this repository into the system the paper describes.
// An Array exposes virtual block volumes with snapshots and clones; writes
// commit to NVRAM, deduplicate and compress inline, and land in
// Reed–Solomon-striped log-structured segments; metadata lives in pyramids;
// deletion is elision; recovery is a frontier-bounded scan plus an NVRAM
// replay; and a garbage collector reclaims segments and flattens medium
// chains.
package core

import (
	"purity/internal/crashpoint"
	"purity/internal/iosched"
	"purity/internal/layout"
	"purity/internal/shelf"
	"purity/internal/sim"
)

// Config assembles an array. Zero fields take defaults from DefaultConfig.
type Config struct {
	Shelf  shelf.Config
	Layout layout.Config

	// Data reduction (§3.1, §4.6, §4.7).
	CompressionEnabled bool
	DedupEnabled       bool
	DedupSampling      int // record 1 in N block hashes (paper: 8)
	DedupMinRunBlocks  int // shortest duplicate run worth mapping (paper: 8)
	RecentIndexSize    int // in-memory recent-hash entries

	// Read scheduling (§4.4).
	ReadPolicy iosched.Policy

	// SLOBudget is the foreground-read tail-latency budget the governor
	// enforces (§4.4: 99.9% of I/O under 1 ms). While the recent p99.9
	// exceeds it, background work (paced scrub steps, the server's
	// low-priority queues) yields to foreground reads and hedging kicks in
	// at ReadPolicy.SLOHedgePercentile. Zero takes the 1 ms default; a
	// negative value disables the governor.
	SLOBudget sim.Time

	// Background maintenance cadence, in operations. The engine runs its
	// background step (pyramid flush, merges, NVRAM trim, checkpoints)
	// every BackgroundEvery committed operations.
	BackgroundEvery int
	// MemtableFlushRows flushes a pyramid once its memtable exceeds this.
	MemtableFlushRows int
	// MaxPatches is the per-pyramid merge target.
	MaxPatches int
	// CheckpointEvery runs a full checkpoint every N background steps.
	CheckpointEvery int

	// FrontierBatch is how many AUs each frontier refill adds (§4.3).
	FrontierBatch int

	// CommitLanes shards the commit path: writes route to one of N lanes
	// by volume, each lane with its own mutex and open data segment, all
	// lanes sharing the single atomic SeqSource and a batching NVRAM
	// committer (§3.2's logical monotonicity is what makes this safe —
	// facts are commutative, so lanes only synchronize on sequence
	// allocation and the durability commit point). ≤ 1 means one lane: the
	// same path with every volume routed to it.
	CommitLanes int

	// GCLiveThreshold: sealed segments below this live fraction are GC
	// candidates.
	GCLiveThreshold float64

	// CBlockCacheEntries bounds the decompressed-cblock DRAM cache.
	CBlockCacheEntries int

	// Crash, when set, is a fault-point registry threaded through every
	// durability-critical path (NVRAM appends, segio flushes, seals,
	// pyramid persists, checkpoints, GC retirement, recovery). Nil — the
	// production default — makes every point a no-op.
	Crash *crashpoint.Registry

	// CPU model: the paper stresses that all-flash arrays are CPU-bound,
	// not I/O bound (§4). Every client op occupies one of CPUCores event
	// cores for CPUOverhead plus a per-KiB cost (hashing, compression,
	// checksums); ops queue when all cores are busy.
	CPUOverhead    int64 // base handler cost, nanoseconds
	CPUCores       int
	CPUPerKiBWrite int64 // nanoseconds per KiB written (hash + compress)
	CPUPerKiBRead  int64 // nanoseconds per KiB read (decompress + copy)
}

// DefaultConfig returns the scaled-down production configuration.
func DefaultConfig() Config {
	return Config{
		Shelf:              shelf.DefaultConfig(),
		Layout:             layout.DefaultConfig(),
		CompressionEnabled: true,
		DedupEnabled:       true,
		DedupSampling:      8,
		DedupMinRunBlocks:  8,
		RecentIndexSize:    1 << 16,
		ReadPolicy:         iosched.DefaultPolicy(),
		SLOBudget:          sim.Millisecond,
		BackgroundEvery:    256,
		MemtableFlushRows:  4096,
		MaxPatches:         6,
		CheckpointEvery:    8,
		FrontierBatch:      24,
		GCLiveThreshold:    0.5,
		CBlockCacheEntries: 4096,
		CPUOverhead:        50_000, // 50 µs
		CPUCores:           16,
		CPUPerKiBWrite:     1_000,
		CPUPerKiBRead:      200,
	}
}

// TestConfig returns a tiny array (6 drives, 3+2) for fast tests.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Layout = layout.TestConfig()
	cfg.Shelf.Drives = 6
	cfg.Shelf.DriveConfig.Capacity = 0 // filled in by normalize
	cfg.BackgroundEvery = 64
	cfg.MemtableFlushRows = 512
	cfg.FrontierBatch = 12
	return cfg
}

// normalize fills derived fields: the drive erase block must equal the AU
// size so freed AUs can be erased precisely, and capacities must be AU
// multiples.
func (c Config) normalize() Config {
	au := c.Layout.AUSize()
	c.Shelf.DriveConfig.EraseBlockSize = int(au)
	if c.Shelf.DriveConfig.Capacity <= 0 {
		c.Shelf.DriveConfig.Capacity = 64 * au // default: 64 AUs per drive
	} else {
		c.Shelf.DriveConfig.Capacity -= c.Shelf.DriveConfig.Capacity % au
		if c.Shelf.DriveConfig.Capacity < 4*au {
			c.Shelf.DriveConfig.Capacity = 4 * au
		}
	}
	if c.DedupSampling <= 0 {
		c.DedupSampling = 8
	}
	if c.DedupMinRunBlocks <= 0 {
		c.DedupMinRunBlocks = 8
	}
	if c.BackgroundEvery <= 0 {
		c.BackgroundEvery = 256
	}
	if c.MemtableFlushRows <= 0 {
		c.MemtableFlushRows = 4096
	}
	if c.MaxPatches <= 0 {
		c.MaxPatches = 6
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.FrontierBatch <= 0 {
		c.FrontierBatch = 24
	}
	if c.GCLiveThreshold <= 0 {
		c.GCLiveThreshold = 0.5
	}
	if c.CBlockCacheEntries <= 0 {
		c.CBlockCacheEntries = 4096
	}
	if c.CPUCores <= 0 {
		c.CPUCores = 16
	}
	if c.CommitLanes <= 0 {
		c.CommitLanes = 1
	}
	if c.SLOBudget == 0 {
		c.SLOBudget = sim.Millisecond
	}
	return c
}
