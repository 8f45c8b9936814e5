package layout

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"purity/internal/lockrank"
)

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Errors returned by the allocator.
var (
	// ErrNeedFrontier means the frontier set lacks AUs on enough distinct
	// healthy drives; the engine must refill (and persist) the frontier.
	ErrNeedFrontier = errors.New("layout: frontier exhausted, refill required")
	// ErrNoSpace means the free pool itself cannot supply a segment.
	ErrNoSpace = errors.New("layout: out of space")
)

// Allocator tracks free allocation units across the shelf and the frontier
// set — the subset of free AUs the system has committed (in the boot
// region) to use next (§4.3, Figure 5). Segments are allocated only from
// the frontier, so recovery can bound its log scan to frontier AUs.
type Allocator struct {
	cfg Config

	mu          lockrank.Mutex[lockrank.LayoutAllocatorMu]
	free        [][]int64 // per-drive sorted free AU indexes
	frontier    []AU      // allocation window, in allocation order
	speculative []AU      // pre-persisted approximation of the next window
}

// NewAllocator builds an allocator with every non-boot AU free. Recovery
// then calls MarkInUse for AUs owned by live segments and SetFrontier for
// the persisted frontier.
func NewAllocator(cfg Config, driveCapacities []int64) (*Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Allocator{cfg: cfg, free: make([][]int64, len(driveCapacities))}
	for d, cap := range driveCapacities {
		n := cfg.AUsPerDrive(cap)
		if n <= 0 {
			return nil, fmt.Errorf("layout: drive %d too small for any AU", d)
		}
		list := make([]int64, 0, n)
		for i := int64(cfg.BootAUs); i < n+int64(cfg.BootAUs); i++ {
			list = append(list, i)
		}
		a.free[d] = list
	}
	return a, nil
}

// FreeAUs returns the total count of free (non-frontier) AUs.
func (a *Allocator) FreeAUs() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, l := range a.free {
		n += int64(len(l))
	}
	return n
}

// FrontierSize returns the number of AUs in the frontier set.
func (a *Allocator) FrontierSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.frontier)
}

// Frontier returns a copy of the current frontier set, for persistence.
func (a *Allocator) Frontier() []AU {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AU(nil), a.frontier...)
}

// Speculative returns a copy of the speculative set, for persistence.
func (a *Allocator) Speculative() []AU {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AU(nil), a.speculative...)
}

// SpeculativeSize returns the number of AUs in the speculative set.
func (a *Allocator) SpeculativeSize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.speculative)
}

// RefillSpeculative moves up to n free AUs into the speculative set — an
// approximation of the *next* frontier, persisted alongside it so the
// frontier can later be extended without another boot-region write (§4.3:
// "speculative and transition sets... allowing us to rewrite the frontier
// set less frequently").
func (a *Allocator) RefillSpeculative(n int) []AU {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.speculative = a.drawFreeLocked(a.speculative, n)
	return append([]AU(nil), a.speculative...)
}

// PromoteSpeculative moves the speculative set into the frontier. Because
// the speculative set was already persisted, the promotion itself needs no
// boot-region write. It reports whether anything was promoted.
func (a *Allocator) PromoteSpeculative() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.speculative) == 0 {
		return false
	}
	a.frontier = append(a.frontier, a.speculative...)
	a.speculative = nil
	return true
}

// RefillFrontier moves up to n free AUs into the frontier, drawing from
// drives round-robin richest-first so segment allocation keeps drive
// diversity. It returns the frontier after refill (the caller persists it
// to the boot region before allocating from it).
func (a *Allocator) RefillFrontier(n int) []AU {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frontier = a.drawFreeLocked(a.frontier, n)
	return append([]AU(nil), a.frontier...)
}

// drawFreeLocked moves up to n free AUs onto set, each from the drive with
// the most free AUs at that moment (lowest drive on a tie), lowest index
// first. Caller holds mu.
func (a *Allocator) drawFreeLocked(set []AU, n int) []AU {
	for added := 0; added < n; added++ {
		best := -1
		for d := range a.free {
			if len(a.free[d]) == 0 {
				continue
			}
			if best < 0 || len(a.free[d]) > len(a.free[best]) {
				best = d
			}
		}
		if best < 0 {
			break
		}
		set = append(set, AU{Drive: best, Index: a.free[best][0]})
		a.free[best] = a.free[best][1:]
	}
	return set
}

// SetFrontier replaces the frontier with the persisted set, removing its
// AUs from the free pool. Recovery calls this after MarkInUse.
func (a *Allocator) SetFrontier(aus []AU) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frontier = append([]AU(nil), aus...)
	for _, au := range aus {
		a.removeFreeLocked(au)
	}
}

// MarkInUse removes AUs (owned by live segments) from the free pool.
func (a *Allocator) MarkInUse(aus []AU) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, au := range aus {
		a.removeFreeLocked(au)
	}
}

// removeFreeLocked drops one AU from its drive's free list. Caller holds
// mu.
func (a *Allocator) removeFreeLocked(au AU) {
	if au.Drive < 0 || au.Drive >= len(a.free) {
		return
	}
	l := a.free[au.Drive]
	i := sort.Search(len(l), func(i int) bool { return l[i] >= au.Index })
	if i < len(l) && l[i] == au.Index {
		a.free[au.Drive] = append(l[:i], l[i+1:]...)
	}
}

// AllocateSegment takes one frontier AU from each of K+M distinct healthy
// drives. `failed` reports whether a drive is offline (nil means none are).
// ErrNeedFrontier asks the caller to refill and persist the frontier first.
func (a *Allocator) AllocateSegment(failed func(drive int) bool) ([]AU, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	want := a.cfg.TotalShards()

	// Earliest frontier AU per eligible drive, preserving frontier order.
	chosenByDrive := map[int]int{} // drive -> index into frontier
	for i, au := range a.frontier {
		if failed != nil && failed(au.Drive) {
			continue
		}
		if _, ok := chosenByDrive[au.Drive]; !ok {
			chosenByDrive[au.Drive] = i
		}
		if len(chosenByDrive) == want {
			break
		}
	}
	if len(chosenByDrive) < want {
		// Distinguish "refill/promote would help" from "no space anywhere":
		// the free pool and the speculative set can both replenish the
		// frontier.
		specDrives := map[int]bool{}
		for _, au := range a.speculative {
			specDrives[au.Drive] = true
		}
		replenishable := 0
		for d := range a.free {
			if failed != nil && failed(d) {
				continue
			}
			if _, taken := chosenByDrive[d]; taken {
				continue
			}
			if len(a.free[d]) > 0 || specDrives[d] {
				replenishable++
			}
		}
		if len(chosenByDrive)+replenishable >= want {
			return nil, ErrNeedFrontier
		}
		return nil, ErrNoSpace
	}

	idxs := make([]int, 0, want)
	for _, i := range chosenByDrive {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	aus := make([]AU, 0, want)
	for _, i := range idxs {
		aus = append(aus, a.frontier[i])
	}
	// Remove chosen entries from the frontier (reverse order keeps indexes
	// valid).
	for j := len(idxs) - 1; j >= 0; j-- {
		i := idxs[j]
		a.frontier = append(a.frontier[:i], a.frontier[i+1:]...)
	}
	return aus, nil
}

// AllocateOn pops the lowest-indexed free AU on the given drive, bypassing
// the frontier. Rebuild uses it to place reconstructed shards on a chosen
// drive (normally the replacement); durability comes from the segment-AU
// swap fact the caller commits, not from the frontier set.
func (a *Allocator) AllocateOn(drive int) (AU, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if drive < 0 || drive >= len(a.free) || len(a.free[drive]) == 0 {
		return AU{}, ErrNoSpace
	}
	au := AU{Drive: drive, Index: a.free[drive][0]}
	a.free[drive] = a.free[drive][1:]
	return au, nil
}

// Free returns AUs to the free pool (after GC has dropped their segment and
// the engine erased them).
func (a *Allocator) Free(aus []AU) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, au := range aus {
		if au.Drive < 0 || au.Drive >= len(a.free) {
			continue
		}
		l := a.free[au.Drive]
		i := sort.Search(len(l), func(i int) bool { return l[i] >= au.Index })
		if i < len(l) && l[i] == au.Index {
			continue // already free; Free is idempotent
		}
		l = append(l, 0)
		copy(l[i+1:], l[i:])
		l[i] = au.Index
		a.free[au.Drive] = l
	}
}
