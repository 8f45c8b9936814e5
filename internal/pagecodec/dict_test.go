package pagecodec

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"purity/internal/sim"
)

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// referenceDict is buildDict as it was before it counted: it builds the
// bases of every candidate width and keeps the first cheapest.
func referenceDict(values []uint64) dict {
	uniq := append([]uint64(nil), values...)
	slices.Sort(uniq)
	uniq = dedupSorted(uniq)

	best := dict{}
	bestCost := uint64(1) << 62
	for _, w := range candidateWidths {
		var bases []uint64
		if len(uniq) == 0 || w >= 64 {
			bases = []uint64{0}
		} else {
			for _, v := range uniq {
				if len(bases) == 0 || v-bases[len(bases)-1] >= uint64(1)<<w {
					bases = append(bases, v)
				}
			}
		}
		cost := uint64(len(values))*uint64(bitsFor(len(bases))+w) + uint64(len(bases))*64
		if cost < bestCost {
			bestCost = cost
			best = dict{width: w, bases: bases}
		}
	}
	return best
}

// TestBuildDictMatchesReference pins buildDict to the all-widths loop it
// replaced — same width, same bases, so every page encodes byte for byte
// as before — and to its allocations: the sorted copy of the column, whose
// front the winner's bases are written over, and a one-base slice when
// the winner is width 64 or the column is empty. The random columns at the
// end are checked for equality only.
func TestBuildDictMatchesReference(t *testing.T) {
	r := sim.NewRand(7)
	column := func(n int, f func(i int) uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	cases := []struct {
		name   string
		values []uint64
		allocs float64
	}{
		{"empty", nil, 1},
		{"one", []uint64{42}, 1},
		{"constant", column(500, func(int) uint64 { return 7 }), 1},
		{"dense", column(500, func(i int) uint64 { return 1000 + uint64(i) }), 1},
		{"clustered", column(500, func(i int) uint64 { return uint64(i%5)<<40 + r.Uint64()%4096 }), 1},
		{"random 16-bit", column(500, func(int) uint64 { return r.Uint64() % 65536 }), 1},
		{"random 64-bit", column(500, func(int) uint64 { return r.Uint64() }), 2},
		{"64-bit spread", column(64, func(i int) uint64 { return uint64(i) << 58 }), 2},
		{"extremes", []uint64{0, 1, 1 << 63, ^uint64(0), ^uint64(0) - 1}, 1},
	}
	for range 20 {
		n := 1 + int(r.Uint64()%300)
		shift := r.Uint64() % 64
		cases = append(cases, struct {
			name   string
			values []uint64
			allocs float64
		}{fmt.Sprintf("random %d-bit, %d rows", 64-shift, n), column(n, func(int) uint64 { return r.Uint64() >> shift }), -1})
	}
	for _, c := range cases {
		want := referenceDict(c.values)
		got := buildDict(c.values)
		if got.width != want.width || !slices.Equal(got.bases, want.bases) {
			t.Errorf("%s: buildDict = width %d, %d bases; the reference chose width %d, %d bases",
				c.name, got.width, len(got.bases), want.width, len(want.bases))
			continue
		}
		if c.allocs < 0 || raceBuild() {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { buildDict(c.values) }); n != c.allocs {
			t.Errorf("%s: buildDict allocates %v objects, want %v", c.name, n, c.allocs)
		}
	}
}
