// Package dedup implements the hashing and matching machinery of Purity's
// inline deduplication (§4.7 of the paper): 512 B-granularity hashing with
// 64-bit hashes, 1-in-8 sampling of *recorded* hashes (every hash is looked
// up, only every eighth is remembered), byte-verification of candidates,
// and anchor extension — growing a verified match forwards and backwards so
// duplicate runs of ≥ 8 blocks (4 KiB) are found regardless of alignment.
package dedup

import (
	"bytes"
	"sync"
)

// Sampling is the default recording rate: one in eight block hashes is
// recorded (§4.7).
const Sampling = 8

// BlockSize is the dedup granularity.
const BlockSize = 512

// FNV-1a, 64-bit.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash returns the 64-bit hash of one 512 B block (FNV-1a). The paper uses
// hashes "no larger than 64 bits" with collision rates of 1e-6 or worse —
// collisions are acceptable because every match is byte-verified before it
// affects anything.
func Hash(block []byte) uint64 {
	h := uint64(offset64)
	for _, b := range block {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// HashBlocks hashes every BlockSize-aligned block of data (whose length
// must be a multiple of BlockSize); out[i] is Hash of block i. FNV-1a is
// one multiply chain per block — each step waits for the last — so four
// blocks are hashed per loop on four independent chains, which the core
// overlaps. The array pointers let the compiler drop the bounds checks
// that would otherwise sit on every chain.
func HashBlocks(data []byte) []uint64 {
	n := len(data) / BlockSize
	out := make([]uint64, n)
	i := 0
	for ; i+4 <= n; i += 4 {
		b0 := (*[BlockSize]byte)(data[i*BlockSize:])
		b1 := (*[BlockSize]byte)(data[(i+1)*BlockSize:])
		b2 := (*[BlockSize]byte)(data[(i+2)*BlockSize:])
		b3 := (*[BlockSize]byte)(data[(i+3)*BlockSize:])
		h0, h1, h2, h3 := uint64(offset64), uint64(offset64), uint64(offset64), uint64(offset64)
		for j := 0; j < BlockSize; j++ {
			h0 = (h0 ^ uint64(b0[j])) * prime64
			h1 = (h1 ^ uint64(b1[j])) * prime64
			h2 = (h2 ^ uint64(b2[j])) * prime64
			h3 = (h3 ^ uint64(b3[j])) * prime64
		}
		out[i], out[i+1], out[i+2], out[i+3] = h0, h1, h2, h3
	}
	for ; i < n; i++ {
		out[i] = Hash(data[i*BlockSize : (i+1)*BlockSize])
	}
	return out
}

// Candidate is where a previously written block lives: a cblock plus a
// sector index within it.
type Candidate struct {
	Segment   uint64
	SegOff    uint64
	PhysLen   uint64
	SectorIdx uint64
}

// RecentIndex is the in-memory hash index over recently written and
// frequently deduplicated blocks. Inline dedup "only checks for duplicates
// of recently written data and frequently deduplicated data" (§4.7); the
// persistent dedup relation holds the sampled long-term entries, and this
// bounded index holds the short-term ones. Safe for concurrent use.
//
// The index is lock-striped: independent sub-tables, each with its own
// mutex, routed by the low bits of the block hash. Every 512 B block of
// every write probes the index, and with the sharded commit lanes several
// writes probe it at once — one global mutex here would put a serial
// section back under the hottest loop of the write path. Striping changes
// eviction from one global FIFO to a per-stripe FIFO of 1/Nth the
// capacity; FNV hashes spread uniformly, so the aggregate recency window
// is the same within noise.
type RecentIndex struct {
	stripes []*recentStripe
	mask    uint64
}

// maxRecentStripes caps the lock-stripe fan-out; 16 is comfortably above
// any plausible commit-lane count. minStripeCap keeps each stripe's FIFO
// window meaningful — small indexes (tests, tiny configs) degenerate to a
// single stripe with exact global-FIFO semantics.
const (
	maxRecentStripes = 16
	minStripeCap     = 16
)

// recentStripe is one independently locked sub-table, open-addressed with
// linear probing rather than a Go map: the keys are already 64-bit FNV
// hashes, so a single multiply spreads them. Eviction (FIFO via the ring)
// deletes ring[pos] immediately before overwriting the slot, so every live
// key has exactly one live ring slot and occupancy never exceeds cap; the
// table is sized 2·cap for a ≤ 0.5 load factor.
type recentStripe struct {
	mu    sync.Mutex
	cap   int
	n     int
	mask  uint64
	shift uint
	keys  []uint64
	vals  []Candidate
	used  []bool
	ring  []uint64 // insertion order for eviction
	pos   int
}

// NewRecentIndex returns an index bounded to capacity entries (spread
// evenly across the stripes). The stripe count is the largest power of two
// ≤ maxRecentStripes that keeps per-stripe capacity ≥ minStripeCap.
func NewRecentIndex(capacity int) *RecentIndex {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	n := 1
	for n < maxRecentStripes && capacity/(n*2) >= minStripeCap {
		n *= 2
	}
	per := capacity / n
	idx := &RecentIndex{stripes: make([]*recentStripe, n), mask: uint64(n - 1)}
	for i := range idx.stripes {
		idx.stripes[i] = newRecentStripe(per)
	}
	return idx
}

func newRecentStripe(capacity int) *recentStripe {
	bits := uint(1)
	for (1 << bits) < 2*capacity {
		bits++
	}
	return &recentStripe{cap: capacity, mask: uint64(1)<<bits - 1, shift: 64 - bits}
}

// alloc builds the stripe's tables, on its first Add: an array pays for
// the index as writes fill it, not when it is formatted or recovered —
// recovery leaves the index empty, and its tables were most of what a
// recovery allocated and cleared. Caller holds mu.
func (r *recentStripe) alloc() {
	size := int(r.mask) + 1
	r.keys = make([]uint64, size)
	r.vals = make([]Candidate, size)
	r.used = make([]bool, size)
	r.ring = make([]uint64, r.cap)
}

// stripe routes a hash to its stripe by the low bits; slot selection inside
// a stripe uses the Fibonacci-multiplied high bits, so the two choices stay
// independent.
func (x *RecentIndex) stripe(h uint64) *recentStripe {
	return x.stripes[h&x.mask]
}

// slot returns the home slot for a hash (Fibonacci hashing: the keys are
// already uniform FNV hashes, one multiply guards against masked-bit bias).
func (r *recentStripe) slot(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> r.shift
}

// find returns the slot holding hash, or the empty slot that ends its
// probe sequence; a stripe nothing was added to holds nothing.
func (r *recentStripe) find(hash uint64) (uint64, bool) {
	if r.used == nil {
		return 0, false
	}
	i := r.slot(hash)
	for r.used[i] {
		if r.keys[i] == hash {
			return i, true
		}
		i = (i + 1) & r.mask
	}
	return i, false
}

// del removes hash if present, back-shifting later entries of the probe
// chain so no tombstones accumulate.
func (r *recentStripe) del(hash uint64) {
	i, ok := r.find(hash)
	if !ok {
		return
	}
	j := i
	for {
		j = (j + 1) & r.mask
		if !r.used[j] {
			break
		}
		k := r.slot(r.keys[j])
		// Entry at j stays if its home k lies cyclically in (i, j].
		if i <= j {
			if i < k && k <= j {
				continue
			}
		} else if k <= j || i < k {
			continue
		}
		r.keys[i], r.vals[i] = r.keys[j], r.vals[j]
		i = j
	}
	r.used[i] = false
	r.n--
}

// Add records a block's location, evicting the stripe's oldest entry when
// the stripe is full.
func (x *RecentIndex) Add(hash uint64, c Candidate) {
	r := x.stripe(hash)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(hash, c)
}

// add is Add within one stripe. Caller holds mu.
func (r *recentStripe) add(hash uint64, c Candidate) {
	if r.used == nil {
		r.alloc()
	}
	if i, ok := r.find(hash); ok {
		r.vals[i] = c
		return
	}
	if r.n >= r.cap {
		r.del(r.ring[r.pos])
	}
	r.ring[r.pos] = hash
	r.pos++
	if r.pos == r.cap {
		r.pos = 0
	}
	i, _ := r.find(hash)
	r.keys[i], r.vals[i], r.used[i] = hash, c, true
	r.n++
}

// Lookup returns the candidate for a hash, if present.
func (x *RecentIndex) Lookup(hash uint64) (Candidate, bool) {
	r := x.stripe(hash)
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.find(hash)
	if !ok {
		return Candidate{}, false
	}
	return r.vals[i], true
}

// Len returns the number of entries across all stripes.
func (x *RecentIndex) Len() int {
	total := 0
	for _, r := range x.stripes {
		r.mu.Lock()
		total += r.n
		r.mu.Unlock()
	}
	return total
}

// Run is a verified duplicate run within a new write: blocks [Start,
// Start+Count) of the write match sectors [CandStart, CandStart+Count) of
// the candidate's cblock.
type Run struct {
	Start     int // block index within the new data
	Count     int
	Cand      Candidate
	CandStart int // sector index within the candidate cblock
}

// FetchFunc returns the decompressed sectors of a candidate cblock, or
// ok=false when the candidate is stale (moved by GC, unreadable, ...).
// Fetching is the paper's "extra read" — the price of confirming a match.
type FetchFunc func(c Candidate) (sectors []byte, ok bool)

// ExtendAnchor byte-verifies a hash match at block `anchor` of data against
// the candidate, then grows the match backwards and forwards block by
// block. It returns the verified run, or ok=false if even the anchor block
// fails verification (a hash collision or stale candidate).
func ExtendAnchor(data []byte, anchor int, cand Candidate, fetch FetchFunc) (Run, bool) {
	sectors, ok := fetch(cand)
	if !ok {
		return Run{}, false
	}
	candBlocks := len(sectors) / BlockSize
	ci := int(cand.SectorIdx)
	if ci >= candBlocks {
		return Run{}, false // stale entry: cblock shrank or entry is garbage
	}
	// equal byte-verifies block i of data against block c of the candidate.
	equal := func(i, c int) bool {
		return bytes.Equal(data[i*BlockSize:(i+1)*BlockSize], sectors[c*BlockSize:(c+1)*BlockSize])
	}
	if !equal(anchor, ci) {
		return Run{}, false
	}
	lo, clo := anchor, ci
	for lo > 0 && clo > 0 && equal(lo-1, clo-1) {
		lo--
		clo--
	}
	hi, chi := anchor+1, ci+1
	nBlocks := len(data) / BlockSize
	for hi < nBlocks && chi < candBlocks && equal(hi, chi) {
		hi++
		chi++
	}
	return Run{Start: lo, Count: hi - lo, Cand: cand, CandStart: clo}, true
}

// ShouldRecord reports whether the i-th block hash of a write should be
// recorded in the persistent dedup index (1-in-Sampling rule; block 0 of
// each cblock is always recorded so every cblock is findable).
func ShouldRecord(i, sampling int) bool {
	if sampling <= 1 {
		return true
	}
	return i%sampling == 0
}
