package pyramid

import (
	"purity/internal/tuple"
)

// A key filter answers the one question a point lookup asks a level first:
// can it hold this key? It is a blocked Bloom filter — each key hashes to
// one 64-bit word and sets filterProbes bits in it — so a probe is one hash,
// one word load and one compare, and a missed dedup probe (§4.7: every
// block of unique data misses) opens no page and searches no memtable run.
//
// At 11 bits per key and 5 bits set, about 1.3 % of absent keys pass: a
// word's load varies from word to word, which costs a one-word filter
// against a classic one (0.5 % at the same size). At 10 bits it would be
// 1.7 %, and a miss against the six patches a dedup probe typically visits
// would open 0.1 pages.
//
// Every patch has one, and so does the memtable. Filters live only in
// memory, like the page cache: writePatch builds a patch's from the sorted
// run it encodes, and a patch rebuilt from its descriptor (UnmarshalPatch)
// has a nil filter, which admits every key, until a merge rewrites it. The
// memtable's is sized for a number of facts and grows with it
// (Pyramid.addMemKeysLocked); a lookup hashes its key once and asks every
// level with that hash.
const (
	filterBitsPerKey = 11
	filterProbes     = 5
)

// keyFilter is a level's filter words; nil admits every key.
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
	f := make(keyFilter, filterWords(keys))
	for i := range sorted {
		if i == 0 || tuple.CompareKeys(sorted[i].Cols, sorted[i-1].Cols, k) != 0 {
			f.add(keyHash(sorted[i].Cols, k))
		}
	}
	return f
}

// filterWords is the size, in words, of a filter for n keys.
func filterWords(n int) int { return (n*filterBitsPerKey + 63) / 64 }

// add sets the bits of the key hashed to h.
func (f keyFilter) add(h uint64) {
	w, mask := filterWord(h, len(f))
	f[w] |= mask
}

// mayContain reports whether the key hashed to h may be in the level; false
// is definite.
func (f keyFilter) mayContain(h uint64) bool {
	if f == nil {
		return true
	}
	w, mask := filterWord(h, len(f))
	return f[w]&mask == mask
}
