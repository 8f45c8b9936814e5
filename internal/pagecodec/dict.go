package pagecodec

import (
	"slices"
	"sort"
)

// dict is the per-field dictionary of §4.9: a sorted list of bases b0..bB-1
// and an offset width W. A value v is encoded as (x, o) with v = bases[x]+o
// and o < 2^W. Constant fields cost zero bits (one base, W=0); dense ranges
// cost only W bits per row.
type dict struct {
	width uint // W: offset bits per row
	bases []uint64
}

// candidate offset widths tried when building a dictionary. 64 always
// succeeds (single base 0, offset = value), so every column is encodable.
var candidateWidths = []uint{0, 1, 2, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64}

// buildDict chooses the (bases, W) pair minimizing encoded size for the
// given column values: rows·(lg B + W) bits of rows plus 64·B bits of bases.
func buildDict(values []uint64) dict {
	uniq := append([]uint64(nil), values...)
	slices.Sort(uniq)
	uniq = dedupSorted(uniq)

	best := dict{}
	bestCost := uint64(1) << 62
	for _, w := range candidateWidths {
		bases := clusterBases(uniq, w)
		cost := uint64(len(values))*uint64(bitsFor(len(bases))+w) + uint64(len(bases))*64
		if cost < bestCost {
			bestCost = cost
			best = dict{width: w, bases: bases}
		}
	}
	return best
}

func dedupSorted(v []uint64) []uint64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// clusterBases greedily covers sorted unique values with bases whose W-bit
// offset range reaches each value.
func clusterBases(sorted []uint64, w uint) []uint64 {
	if len(sorted) == 0 {
		return []uint64{0}
	}
	if w >= 64 {
		return []uint64{0}
	}
	// Count first so the result is allocated exactly once.
	span := uint64(1) << w
	n := 0
	var base uint64
	have := false
	for _, v := range sorted {
		if !have || v-base >= span {
			base = v
			n++
			have = true
		}
	}
	bases := make([]uint64, 0, n)
	have = false
	for _, v := range sorted {
		if !have || v-base >= span {
			base = v
			bases = append(bases, base)
			have = true
		}
	}
	return bases
}

// encode returns (baseIndex, offset) for v, or ok=false if v is not
// representable (no base within range) — which for values the dict was
// built from never happens.
func (d dict) encode(v uint64) (x int, o uint64, ok bool) {
	// Find the greatest base ≤ v.
	i := sort.Search(len(d.bases), func(i int) bool { return d.bases[i] > v }) - 1
	if i < 0 {
		return 0, 0, false
	}
	o = v - d.bases[i]
	if d.width < 64 && o >= uint64(1)<<d.width {
		return 0, 0, false
	}
	return i, o, true
}

// decode returns the value for (baseIndex, offset).
func (d dict) decode(x int, o uint64) uint64 { return d.bases[x] + o }

// indexBits is the bits used for the base index.
func (d dict) indexBits() uint { return bitsFor(len(d.bases)) }

// rowBits is the total bits one value of this column occupies in a row.
func (d dict) rowBits() uint { return d.indexBits() + d.width }
