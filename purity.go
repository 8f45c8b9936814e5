// Package purity is a Go reproduction of Purity, Pure Storage's all-flash
// enterprise array software (Colgrove et al., SIGMOD 2015). It exposes
// thin-provisioned block volumes with instant snapshots and clones, inline
// deduplication and compression, Reed–Solomon protected log-structured
// segment storage over a simulated flash shelf, predicate-based deletion
// (elision), crash recovery with frontier-bounded scans, and garbage
// collection with medium-chain flattening.
//
// The devices underneath are simulators (package internal/ssd): data lives
// in RAM, but every code path — striping, parity reconstruction, NVRAM
// commits, LSM metadata, recovery — is real. Time is simulated too: every
// operation reports its completion on a virtual clock, which is how the
// repository reproduces the paper's latency experiments deterministically.
//
// Quick start:
//
//	arr, _ := purity.New()
//	vol, _ := arr.CreateVolume("db", 1<<30)
//	vol.WriteAt(data, 0)
//	snap, _ := vol.Snapshot("before-upgrade")
//	clone, _ := snap.Clone("test-env")
package purity

import (
	"purity/internal/core"
	"purity/internal/lockrank"
	"purity/internal/shelf"
	"purity/internal/sim"
)

// Array is a Purity storage appliance. Its virtual clock advances to each
// operation's completion time, so sequential use behaves like a single
// client issuing one request at a time; Elapsed reports total simulated
// time. For open-loop or multi-client timing experiments, use Core and
// drive times explicitly.
//
// Array and Volume handles are safe for parallel callers: the clock mutex
// covers only the timestamp bookkeeping, and the engine work — including a
// write's compression and hashing, which run before the engine lock — is
// done outside it. Concurrent operations start from the same clock
// snapshot (they are concurrent on the simulated timeline too) and the
// clock advances to the latest completion.
type Array struct {
	mu   lockrank.Mutex[lockrank.PurityArrayMu]
	core *core.Array
	now  sim.Time
}

// Option customizes New.
type Option func(*core.Config)

// WithDrives sets the drive count (the paper's shelves hold 11–24).
func WithDrives(n int) Option {
	return func(c *core.Config) { c.Shelf.Drives = n }
}

// WithDriveCapacity sets per-drive capacity in bytes (rounded to AUs).
func WithDriveCapacity(bytes int64) Option {
	return func(c *core.Config) { c.Shelf.DriveConfig.Capacity = bytes }
}

// WithoutCompression disables inline compression.
func WithoutCompression() Option {
	return func(c *core.Config) { c.CompressionEnabled = false }
}

// WithoutDedup disables inline deduplication.
func WithoutDedup() Option {
	return func(c *core.Config) { c.DedupEnabled = false }
}

// WithConfig replaces the whole engine configuration.
func WithConfig(cfg core.Config) Option {
	return func(c *core.Config) { *c = cfg }
}

// New formats a fresh array.
func New(opts ...Option) (*Array, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	a, err := core.Format(cfg)
	if err != nil {
		return nil, err
	}
	return &Array{core: a}, nil
}

// Recover opens an array from an existing shelf (after a crash or
// controller failover), replaying NVRAM and scanning the frontier set.
func Recover(cfg core.Config, sh *shelf.Shelf) (*Array, core.RecoveryStats, error) {
	a, rs, err := core.Open(cfg, sh)
	if err != nil {
		return nil, rs, err
	}
	return &Array{core: a, now: rs.TotalTime}, rs, nil
}

// Core exposes the engine for time-explicit use (benchmarks, experiments).
func (a *Array) Core() *core.Array { return a.core }

// Shelf exposes the device shelf for fault injection.
func (a *Array) Shelf() *shelf.Shelf { return a.core.Shelf() }

// Elapsed returns the simulated time consumed by operations so far.
func (a *Array) Elapsed() sim.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.now
}

// Stats returns engine counters and latency histograms.
func (a *Array) Stats() core.StatsSnapshot { return a.core.Stats() }

// step runs op at the current virtual time and advances the clock. The
// clock lock is NOT held across op: the engine synchronizes internally, so
// parallel steps overlap on real CPUs (and, deliberately, on the simulated
// timeline). A single sequential caller sees exactly the old behavior.
func (a *Array) step(op func(at sim.Time) (sim.Time, error)) error {
	a.mu.Lock()
	at := a.now
	a.mu.Unlock()
	done, err := op(at)
	a.mu.Lock()
	if done > a.now {
		a.now = done
	}
	a.mu.Unlock()
	return err
}

// CreateVolume provisions a thin volume.
func (a *Array) CreateVolume(name string, sizeBytes int64) (*Volume, error) {
	var id core.VolumeID
	err := a.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		id, done, err = a.core.CreateVolume(at, name, sizeBytes)
		return done, err
	})
	if err != nil {
		return nil, err
	}
	return &Volume{arr: a, id: id}, nil
}

// OpenVolume finds an existing volume or snapshot by name.
func (a *Array) OpenVolume(name string) (*Volume, error) {
	var found *Volume
	err := a.step(func(at sim.Time) (sim.Time, error) {
		infos, done, err := a.core.Volumes(at)
		if err != nil {
			return done, err
		}
		for _, info := range infos {
			if info.Name == name {
				found = &Volume{arr: a, id: info.ID}
				return done, nil
			}
		}
		return done, core.ErrNoSuchVolume
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// Volumes lists all volumes and snapshots.
func (a *Array) Volumes() ([]core.VolumeInfo, error) {
	var out []core.VolumeInfo
	err := a.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		out, done, err = a.core.Volumes(at)
		return done, err
	})
	return out, err
}

// GC runs one garbage-collection cycle and returns its report.
func (a *Array) GC() (core.GCReport, error) {
	var rep core.GCReport
	err := a.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		rep, done, err = a.core.RunGC(at)
		return done, err
	})
	return rep, err
}

// Scrub walks all sealed segments, verifies every write unit against the
// AU-trailer checksums, and repairs damaged ones in place from parity.
func (a *Array) Scrub() (core.ScrubReport, error) {
	var rep core.ScrubReport
	err := a.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		rep, done, err = a.core.Scrub(at)
		return done, err
	})
	return rep, err
}

// ReplaceDrive swaps a failed drive for a fresh device and marks every
// shard it hosted as lost (served from parity until Rebuild). The shelf
// slot must be in the failed state — use Shelf().PullDrive to fail it.
func (a *Array) ReplaceDrive(drive int) error {
	return a.step(func(at sim.Time) (sim.Time, error) {
		return a.core.ReplaceDrive(at, drive)
	})
}

// Rebuild reconstructs every shard lost with the given drive onto its
// replacement, restoring full redundancy. Concurrent with foreground I/O.
func (a *Array) Rebuild(drive int) (core.RebuildReport, error) {
	var rep core.RebuildReport
	err := a.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		rep, done, err = a.core.Rebuild(at, drive)
		return done, err
	})
	return rep, err
}

// Flush checkpoints all state (graceful shutdown).
func (a *Array) Flush() error {
	return a.step(a.core.FlushAll)
}

// Volume is a handle to a volume or snapshot.
type Volume struct {
	arr *Array
	id  core.VolumeID
}

// ID returns the volume's identifier.
func (v *Volume) ID() core.VolumeID { return v.id }

// Info returns the volume's catalog entry.
func (v *Volume) Info() (core.VolumeInfo, error) {
	var info core.VolumeInfo
	err := v.arr.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		info, done, err = v.arr.core.Lookup(at, v.id)
		return done, err
	})
	return info, err
}

// WriteAt writes sector-aligned data at a sector-aligned byte offset.
func (v *Volume) WriteAt(data []byte, off int64) error {
	return v.arr.step(func(at sim.Time) (sim.Time, error) {
		return v.arr.core.WriteAt(at, v.id, off, data)
	})
}

// ReadAt reads n sector-aligned bytes at a sector-aligned byte offset.
// Unwritten space reads as zeros.
func (v *Volume) ReadAt(off int64, n int) ([]byte, error) {
	var out []byte
	err := v.arr.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		out, done, err = v.arr.core.ReadAt(at, v.id, off, n)
		return done, err
	})
	return out, err
}

// Snapshot freezes the volume's contents under a new name; the volume
// remains writable. O(1) in data.
func (v *Volume) Snapshot(name string) (*Volume, error) {
	var id core.VolumeID
	err := v.arr.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		id, done, err = v.arr.core.Snapshot(at, v.id, name)
		return done, err
	})
	if err != nil {
		return nil, err
	}
	return &Volume{arr: v.arr, id: id}, nil
}

// Clone creates a writable volume backed by this snapshot. O(1) in data.
func (v *Volume) Clone(name string) (*Volume, error) {
	var id core.VolumeID
	err := v.arr.step(func(at sim.Time) (sim.Time, error) {
		var done sim.Time
		var err error
		id, done, err = v.arr.core.Clone(at, v.id, name)
		return done, err
	})
	if err != nil {
		return nil, err
	}
	return &Volume{arr: v.arr, id: id}, nil
}

// Delete removes the volume or snapshot. A volume's private data is elided
// immediately; shared snapshot data is reclaimed by GC once unreferenced.
func (v *Volume) Delete() error {
	return v.arr.step(func(at sim.Time) (sim.Time, error) {
		return v.arr.core.Delete(at, v.id)
	})
}
