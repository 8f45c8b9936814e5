// Package dedup implements the hashing and matching machinery of Purity's
// inline deduplication (§4.7 of the paper): 512 B-granularity hashing with
// 64-bit hashes, 1-in-8 sampling of *recorded* hashes (every hash is looked
// up, only every eighth is remembered), byte-verification of candidates,
// and anchor extension — growing a verified match forwards and backwards so
// duplicate runs of ≥ 8 blocks (4 KiB) are found regardless of alignment.
package dedup

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"purity/internal/lockrank"
)

// Sampling is the default recording rate: one in eight block hashes is
// recorded (§4.7).
const Sampling = 8

// BlockSize is the dedup granularity.
const BlockSize = 512

// XXH64's primes (https://github.com/Cyan4973/xxHash, doc/xxhash_spec.md);
// its fifth serves only inputs under 32 bytes and tails, which a 512 B
// block never has.
const (
	prime1 = 0x9E3779B185EBCA87
	prime2 = 0xC2B2AE3D27D4EB4F
	prime3 = 0x165667B19E3779F9
	prime4 = 0x85EBCA77C2B2AE63
)

// Hash returns the 64-bit hash of one 512 B block: XXH64 with seed 0. The
// paper uses hashes "no larger than 64 bits" with collision rates of 1e-6 or
// worse — collisions are acceptable because every match is byte-verified
// before it affects anything. block must be exactly BlockSize bytes long.
func Hash(block []byte) uint64 {
	if len(block) != BlockSize {
		panic("dedup: Hash takes one block")
	}
	return hashBlock((*[BlockSize]byte)(block))
}

// hashBlock is XXH64 (seed 0) specialised to a 512 B input: 16 stripes of
// 32 B, each stripe's four little-endian words folded into four independent
// accumulators, so a core overlaps the four multiply chains and each step
// consumes 8 bytes. A block is a whole number of stripes, so the input has
// no tail; then the accumulators merge, the length is added and the
// avalanche mixes the bits.
func hashBlock(b *[BlockSize]byte) uint64 {
	p1, p2 := uint64(prime1), uint64(prime2) // the seed-0 starts wrap
	v1, v2, v3, v4 := p1+p2, p2, uint64(0), -p1
	for i := 0; i < BlockSize; i += 32 {
		s := (*[32]byte)(b[i:])
		v1 = round(v1, binary.LittleEndian.Uint64(s[0:]))
		v2 = round(v2, binary.LittleEndian.Uint64(s[8:]))
		v3 = round(v3, binary.LittleEndian.Uint64(s[16:]))
		v4 = round(v4, binary.LittleEndian.Uint64(s[24:]))
	}
	h := bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
	h = mergeRound(h, v1)
	h = mergeRound(h, v2)
	h = mergeRound(h, v3)
	h = mergeRound(h, v4)
	h += BlockSize
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func round(acc, lane uint64) uint64 {
	return bits.RotateLeft64(acc+lane*prime2, 31) * prime1
}

func mergeRound(acc, v uint64) uint64 {
	return (acc^round(0, v))*prime1 + prime4
}

// HashBlocks hashes every BlockSize-aligned block of data (whose length
// must be a multiple of BlockSize); out[i] is Hash of block i.
func HashBlocks(data []byte) []uint64 {
	return AppendHashBlocks(make([]uint64, 0, len(data)/BlockSize), data)
}

// AppendHashBlocks appends HashBlocks(data) to dst. Bytes past the last
// whole block are ignored.
func AppendHashBlocks(dst []uint64, data []byte) []uint64 {
	n := len(data) / BlockSize
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, hashBlock((*[BlockSize]byte)(data[i*BlockSize:])))
	}
	return dst
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
// capacity; XXH64 hashes spread uniformly, so the aggregate recency window
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
// linear probing rather than a Go map: the keys are already 64-bit XXH64
// hashes, so a single multiply spreads them. Eviction (FIFO via the ring)
// deletes ring[pos] immediately before overwriting the slot, so every live
// key has exactly one live ring slot and occupancy never exceeds cap; the
// table is sized 2·cap for a ≤ 0.5 load factor.
type recentStripe struct {
	mu    lockrank.Mutex[lockrank.DedupRecentStripeMu]
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
// already uniform XXH64 hashes, one multiply guards against masked-bit bias).
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

// maxCBlockBlocks is the most blocks a cblock holds: 32 KiB of 512 B
// blocks.
const maxCBlockBlocks = 64

// AddCBlock records every block of one cblock: hashes[i] at sector i of c
// (c's own SectorIdx is ignored). It leaves the index as Add for each hash
// in order would, but takes each stripe's lock once for the hashes routed
// to it, where Add takes one lock per hash: it threads the hashes into one
// list per stripe, in order, so each stripe's FIFO evicts what Add's
// would. More hashes than a cblock has blocks is a caller bug.
func (x *RecentIndex) AddCBlock(hashes []uint64, c Candidate) {
	if len(hashes) > maxCBlockBlocks {
		panic("dedup: AddCBlock takes one cblock")
	}
	var head [maxRecentStripes]int8
	var next [maxCBlockBlocks]int8
	for s := range head {
		head[s] = -1
	}
	for i := len(hashes) - 1; i >= 0; i-- {
		s := hashes[i] & x.mask
		next[i], head[s] = head[s], int8(i)
	}
	for s, i := range head[:len(x.stripes)] {
		if i < 0 {
			continue
		}
		r := x.stripes[s]
		r.mu.Lock()
		for ; i >= 0; i = next[i] {
			c.SectorIdx = uint64(i)
			r.add(hashes[i], c)
		}
		r.mu.Unlock()
	}
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

// Recorded is how many of n block hashes ShouldRecord keeps.
func Recorded(n, sampling int) int {
	if sampling <= 1 {
		return n
	}
	return (n + sampling - 1) / sampling
}
