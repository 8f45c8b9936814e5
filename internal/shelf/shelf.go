// Package shelf models a Flash Array storage shelf (§4.1, Figure 2 of the
// paper): a tray of 11–24 dual-ported consumer SSDs plus NVRAM devices.
// SAS interposers connect every drive to both controllers, so the shelf is
// simply shared state between controller instances; "interposer failover"
// needs no modelling beyond both controllers holding the same references.
//
// The shelf is where pull-a-drive fault injection lives: the paper
// encourages evaluators to yank drives mid-workload, and experiment E6 does
// exactly that.
package shelf

import (
	"fmt"
	"sync"

	"purity/internal/nvram"
	"purity/internal/ssd"
)

// DriveState is one drive bay's position in the health lifecycle:
// healthy → (pull/fail) → failed → (Replace) → rebuilding → (rebuild
// completes) → healthy. The state machine lives on the shelf because it
// describes the bay, not the device: Replace swaps a fresh device into the
// same slot.
type DriveState int

const (
	DriveHealthy DriveState = iota
	DriveFailed
	DriveRebuilding
)

// String returns the state name.
func (s DriveState) String() string {
	switch s {
	case DriveHealthy:
		return "healthy"
	case DriveFailed:
		return "failed"
	case DriveRebuilding:
		return "rebuilding"
	default:
		return fmt.Sprintf("DriveState(%d)", int(s))
	}
}

// Config describes a shelf.
type Config struct {
	Drives      int // number of SSDs (paper: 11–24)
	DriveConfig ssd.Config
	NVRAM       int // number of NVRAM devices (paper: redundant pair)
	NVRAMConfig nvram.Config
}

// DefaultConfig returns the scaled-down 11-drive shelf used by tests.
func DefaultConfig() Config {
	return Config{
		Drives:      11,
		DriveConfig: ssd.DefaultConfig(),
		NVRAM:       2,
		NVRAMConfig: nvram.DefaultConfig(),
	}
}

// Shelf owns the devices. It is shared by both controllers.
type Shelf struct {
	drives []*ssd.Device
	nvrams []*nvram.Device

	mu       sync.Mutex
	states   []DriveState
	replaced []int // per-slot replacement count, for seed derivation
	baseCfg  ssd.Config
}

// New builds a shelf with cfg.Drives SSDs and cfg.NVRAM NVRAM devices.
// Drives get distinct RNG seeds so wear failures are not correlated.
func New(cfg Config) (*Shelf, error) {
	if cfg.Drives <= 0 {
		return nil, fmt.Errorf("shelf: need at least one drive, got %d", cfg.Drives)
	}
	if cfg.NVRAM <= 0 {
		return nil, fmt.Errorf("shelf: need at least one NVRAM device, got %d", cfg.NVRAM)
	}
	s := &Shelf{
		states:   make([]DriveState, cfg.Drives),
		replaced: make([]int, cfg.Drives),
		baseCfg:  cfg.DriveConfig,
	}
	for i := 0; i < cfg.Drives; i++ {
		dc := cfg.DriveConfig
		dc.Seed = dc.Seed*1000003 + uint64(i) + 1
		d, err := ssd.New(fmt.Sprintf("ssd%d", i), dc)
		if err != nil {
			return nil, err
		}
		s.drives = append(s.drives, d)
	}
	for i := 0; i < cfg.NVRAM; i++ {
		n, err := nvram.New(cfg.NVRAMConfig)
		if err != nil {
			return nil, err
		}
		s.nvrams = append(s.nvrams, n)
	}
	return s, nil
}

// Drives returns all drives, including failed ones.
func (s *Shelf) Drives() []*ssd.Device { return s.drives }

// Drive returns drive i.
func (s *Shelf) Drive(i int) *ssd.Device { return s.drives[i] }

// NumDrives returns the drive count.
func (s *Shelf) NumDrives() int { return len(s.drives) }

// NVRAM returns NVRAM device i. Device 0 is the primary commit log; the
// rest mirror it (mirroring is the commit path's job).
func (s *Shelf) NVRAM(i int) *nvram.Device { return s.nvrams[i] }

// NumNVRAM returns the NVRAM device count.
func (s *Shelf) NumNVRAM() int { return len(s.nvrams) }

// PullDrive fails drive i, as an evaluator yanking it from the bay.
func (s *Shelf) PullDrive(i int) error {
	if i < 0 || i >= len(s.drives) {
		return fmt.Errorf("shelf: no drive %d", i)
	}
	s.drives[i].Fail()
	s.mu.Lock()
	s.states[i] = DriveFailed
	s.mu.Unlock()
	return nil
}

// ReinsertDrive revives drive i with its data intact.
func (s *Shelf) ReinsertDrive(i int) error {
	if i < 0 || i >= len(s.drives) {
		return fmt.Errorf("shelf: no drive %d", i)
	}
	s.drives[i].Revive()
	s.mu.Lock()
	s.states[i] = DriveHealthy
	s.mu.Unlock()
	return nil
}

// Replace swaps a fresh blank device into bay i (a technician inserting a
// replacement for a pulled drive) and marks the bay rebuilding. The swap is
// in place within the shared drive slice, so every component holding the
// slice — reader, writers, boot region — sees the new device; callers
// serialize the swap against I/O (the engine does it under its lock).
// Rebuild is the caller's job; MarkHealthy completes the lifecycle.
func (s *Shelf) Replace(i int) (*ssd.Device, error) {
	if i < 0 || i >= len(s.drives) {
		return nil, fmt.Errorf("shelf: no drive %d", i)
	}
	s.mu.Lock()
	if s.states[i] != DriveFailed {
		s.mu.Unlock()
		return nil, fmt.Errorf("shelf: drive %d is %v, not failed", i, s.states[i])
	}
	s.replaced[i]++
	gen := s.replaced[i]
	s.mu.Unlock()

	dc := s.baseCfg
	dc.Seed = dc.Seed*1000003 + uint64(i) + 1 + uint64(gen)*7368787
	d, err := ssd.New(fmt.Sprintf("ssd%d.%d", i, gen), dc)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.drives[i] = d
	s.states[i] = DriveRebuilding
	s.mu.Unlock()
	return d, nil
}

// MarkHealthy records that bay i has returned to full redundancy (rebuild
// complete).
func (s *Shelf) MarkHealthy(i int) {
	if i < 0 || i >= len(s.drives) {
		return
	}
	s.mu.Lock()
	s.states[i] = DriveHealthy
	s.mu.Unlock()
}

// State returns bay i's health state.
func (s *Shelf) State(i int) DriveState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.states) {
		return DriveHealthy
	}
	return s.states[i]
}

// States returns a snapshot of every bay's health state.
func (s *Shelf) States() []DriveState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]DriveState(nil), s.states...)
}

// FailedDrives returns the indexes of drives currently offline.
func (s *Shelf) FailedDrives() []int {
	var out []int
	for i, d := range s.drives {
		if d.Failed() {
			out = append(out, i)
		}
	}
	return out
}

// AggregateStats sums per-drive counters across the shelf.
func (s *Shelf) AggregateStats() ssd.Stats {
	var agg ssd.Stats
	for _, d := range s.drives {
		st := d.Stats()
		agg.HostBytesRead += st.HostBytesRead
		agg.HostBytesWritten += st.HostBytesWritten
		agg.FlashBytesWritten += st.FlashBytesWritten
		agg.Erases += st.Erases
		agg.RandomWrites += st.RandomWrites
		agg.StalledReads += st.StalledReads
		agg.QueuedReads += st.QueuedReads
		agg.BadBlocks += st.BadBlocks
		agg.BitFlips += st.BitFlips
		if st.MaxWear > agg.MaxWear {
			agg.MaxWear = st.MaxWear
		}
	}
	return agg
}
