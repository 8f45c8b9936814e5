// Package layout implements Purity's physical storage layout (§4.2,
// Figure 3 of the paper): data lives in segments, each striped across K+M
// drives with Reed–Solomon parity. A segment is one allocation unit (AU)
// per drive; within the segment, horizontal stripes of write units called
// segios accumulate compressed user data from the front and log records
// (metadata facts) from the back, flushing to the drives when full.
//
// Every write this package issues to a drive is an append within an AU, so
// the drives only ever see large sequential writes — the property that
// keeps consumer FTLs predictable (§3.3).
package layout

import (
	"fmt"

	"purity/internal/tuple"
)

// Config fixes the geometry of segments. The paper's production values are
// 8 MB AUs, 1 MB write units and 7+2 encoding over 11-drive write groups;
// defaults here are scaled down so simulations stay laptop-sized.
type Config struct {
	PageSize     int // AU trailer page size, bytes
	WriteUnit    int // write unit (one shard of one segio), bytes
	StripesPerAU int // segios per segment
	DataShards   int // K
	ParityShards int // M
	BootAUs      int // AUs reserved per drive for the boot region

	// MaxConcurrentWrites bounds how many drives a segio flush programs at
	// once. The paper keeps this at 2 per write group so reads can always
	// be served by reconstruction from idle drives (§4.4). Setting it to
	// K+M disables staggering (the E1 ablation).
	MaxConcurrentWrites int
}

// DefaultConfig returns the scaled-down production geometry: 7+2, 128 KiB
// write units, 8 stripes per AU (AU = 1 MiB + one trailer page).
func DefaultConfig() Config {
	return Config{
		PageSize:            4 << 10,
		WriteUnit:           128 << 10,
		StripesPerAU:        8,
		DataShards:          7,
		ParityShards:        2,
		BootAUs:             1,
		MaxConcurrentWrites: 2,
	}
}

// TestConfig returns a tiny geometry (3+2, 32 KiB write units) for tests.
func TestConfig() Config {
	return Config{
		PageSize:            4 << 10,
		WriteUnit:           32 << 10,
		StripesPerAU:        4,
		DataShards:          3,
		ParityShards:        2,
		BootAUs:             1,
		MaxConcurrentWrites: 2,
	}
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.PageSize <= 0 || c.WriteUnit <= 0 || c.StripesPerAU <= 0 {
		return fmt.Errorf("layout: invalid sizes in %+v", c)
	}
	if c.DataShards <= 0 || c.ParityShards <= 0 {
		return fmt.Errorf("layout: invalid shard counts in %+v", c)
	}
	if c.MaxConcurrentWrites <= 0 {
		return fmt.Errorf("layout: MaxConcurrentWrites must be positive")
	}
	if c.StripeCapacity() <= 0 {
		return fmt.Errorf("layout: stripe too small for trailer")
	}
	return nil
}

// TotalShards returns K+M.
func (c Config) TotalShards() int { return c.DataShards + c.ParityShards }

// AUSize returns the allocation unit size: the stripes plus a trailer page.
func (c Config) AUSize() int64 {
	return int64(c.StripesPerAU)*int64(c.WriteUnit) + int64(c.PageSize)
}

// StripeDataBytes returns the logical bytes one stripe (segio) holds,
// including its trailer.
func (c Config) StripeDataBytes() int { return c.DataShards * c.WriteUnit }

// StripeCapacity returns the usable logical bytes of one stripe: data plus
// log records, excluding the segio trailer.
func (c Config) StripeCapacity() int { return c.StripeDataBytes() - segioTrailerSize }

// SegmentLogicalSize returns the logical byte span of a full segment.
func (c Config) SegmentLogicalSize() int64 {
	return int64(c.StripesPerAU) * int64(c.StripeDataBytes())
}

// AUsPerDrive returns how many AUs fit on a drive of the given capacity,
// excluding the boot region.
func (c Config) AUsPerDrive(capacity int64) int64 {
	return capacity/c.AUSize() - int64(c.BootAUs)
}

// SegmentID identifies a segment. IDs are allocated densely and never
// reused, like sequence numbers.
type SegmentID uint64

// AU names one allocation unit: a drive index within the shelf and the AU
// index on that drive (boot AUs included in the numbering).
type AU struct {
	Drive int
	Index int64
}

// Offset returns the AU's byte offset on its drive.
func (a AU) Offset(c Config) int64 { return a.Index * c.AUSize() }

// SegmentInfo describes one segment's physical placement and seal state.
// It is reconstructed from AU trailers at recovery and cached by the
// in-memory segment map during forward operation.
type SegmentInfo struct {
	ID      SegmentID
	AUs     []AU // shard i lives on AUs[i]; len = K+M
	Stripes int  // stripes flushed so far
	Sealed  bool
	SeqMin  tuple.Seq // lowest sequence number in any log record
	SeqMax  tuple.Seq // highest
}

// slotTable holds the parity rotation: which shard slot holds which shard
// of a stripe. Parity rotates across stripes like RAID-6 so no drive becomes
// a parity hot spot (Figure 3 shows the rotated D/P/Q columns), which leaves
// only K+M distinct arrangements; a Reader or Writer computes them once and
// every shard access indexes one.
type slotTable []slotRow

// slotRow is one arrangement, in both directions. Coder order is data
// shards 0..K-1, then parity shards K..K+M-1.
type slotRow struct {
	data  []int // data[d] is the slot holding data shard d
	coder []int // coder[slot] is the coder-order index of the shard in slot
}

func newSlotTable(c Config) slotTable {
	k, m, n := c.DataShards, c.ParityShards, c.TotalShards()
	t := make(slotTable, n)
	backing := make([]int, (k+n)*n) // every row's two lists in one allocation
	for r := range t {
		row := backing[(k+n)*r : (k+n)*(r+1)]
		at := slotRow{data: row[:k:k], coder: row[k:]}
		d := 0
		for slot := 0; slot < n; slot++ {
			// Parity shard j of rotation r sits in slot (r+j) mod n; the
			// data shards fill the other slots in ascending order.
			if j := (slot - r + n) % n; j < m {
				at.coder[slot] = k + j
			} else {
				at.data[d] = slot
				at.coder[slot] = d
				d++
			}
		}
		t[r] = at
	}
	return t
}

// at returns the arrangement of stripe s.
func (t slotTable) at(s int) slotRow { return t[s%len(t)] }
