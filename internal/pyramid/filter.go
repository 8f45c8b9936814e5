package pyramid

import (
	"purity/internal/tuple"
)

// A patch's key filter answers the one question a point lookup asks a patch
// first: can it hold this key? It is a blocked Bloom filter — each key hashes
// to one 64-bit word and sets filterProbes bits in it — so a probe is one
// hash, one word load and one compare, and a missed dedup probe (§4.7: every
// block of unique data misses) opens no page.
//
// At 11 bits per key and 5 bits set, about 1.3 % of absent keys pass: a
// word's load varies from word to word, which costs a one-word filter
// against a classic one (0.5 % at the same size). At 10 bits it would be
// 1.7 %, and a miss against the six patches a dedup probe typically visits
// would open 0.1 pages.
//
// Filters live only in memory, like the page cache: writePatch builds one
// from the sorted run it encodes, and a patch rebuilt from its descriptor
// (UnmarshalPatch) has a nil filter, which admits every key, until a
// merge rewrites it.
const (
	filterBitsPerKey = 11
	filterProbes     = 5
)

// keyFilter is a patch's filter words; nil admits every key.
type keyFilter []uint64

// mix64 is a fixed 64-bit finalizer (MurmurHash3's): volume, medium and
// sector keys are small integers, and a filter needs their bits spread.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// keyHash hashes the first k columns of key.
func keyHash(key []uint64, k int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range key[:k] {
		h = mix64(h ^ c)
	}
	return h
}

// filterWord returns the index of h's word among n and the bits h sets in
// it: the high half picks the word (a multiply-shift, no division), the low
// 30 bits are five 6-bit positions.
func filterWord(h uint64, n int) (int, uint64) {
	w := int((h >> 32) * uint64(n) >> 32)
	var mask uint64
	for i := 0; i < filterProbes; i++ {
		mask |= 1 << (h >> (6 * i) & 63)
	}
	return w, mask
}

// buildFilter returns the filter of a run sorted by key; the versions of a
// key are adjacent, so each distinct key is counted and added once.
func buildFilter(sorted []tuple.Fact, k int) keyFilter {
	keys := 0
	for i := range sorted {
		if i == 0 || tuple.CompareKeys(sorted[i].Cols, sorted[i-1].Cols, k) != 0 {
			keys++
		}
	}
	if keys == 0 {
		return nil
	}
	f := make(keyFilter, (keys*filterBitsPerKey+63)/64)
	for i := range sorted {
		if i == 0 || tuple.CompareKeys(sorted[i].Cols, sorted[i-1].Cols, k) != 0 {
			w, mask := filterWord(keyHash(sorted[i].Cols, k), len(f))
			f[w] |= mask
		}
	}
	return f
}

// mayContain reports whether the key hashed to h may be in the patch; false
// is definite.
func (f keyFilter) mayContain(h uint64) bool {
	if f == nil {
		return true
	}
	w, mask := filterWord(h, len(f))
	return f[w]&mask == mask
}
