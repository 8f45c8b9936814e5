package elide

import (
	"testing"
	"testing/quick"

	"purity/internal/sim"
	"purity/internal/tuple"
)

func fact(seq tuple.Seq, cols ...uint64) tuple.Fact {
	return tuple.Fact{Seq: seq, Cols: cols}
}

func TestPredicateMatches(t *testing.T) {
	p := Predicate{Col: 0, Lo: 10, Hi: 20, MaxSeq: 100}
	cases := []struct {
		f    tuple.Fact
		want bool
	}{
		{fact(50, 15), true},
		{fact(50, 10), true},
		{fact(50, 20), true},
		{fact(50, 9), false},
		{fact(50, 21), false},
		{fact(101, 15), false}, // written after the deletion
		{fact(100, 15), true},
	}
	for i, c := range cases {
		if got := p.Matches(c.f); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestTableElided(t *testing.T) {
	tab := NewTable()
	tab.Add(Predicate{Col: 0, Lo: 5, Hi: 9, MaxSeq: 1000})
	tab.Add(Predicate{Col: 1, Lo: 100, Hi: 100, MaxSeq: 1000})
	if !tab.Elided(fact(1, 7, 0)) {
		t.Fatal("col0 range miss")
	}
	if tab.Elided(fact(1, 10, 0)) {
		t.Fatal("false positive")
	}
	if !tab.Elided(fact(1, 0, 100)) {
		t.Fatal("col1 point miss")
	}
	// Fact with fewer columns than some predicate's Col is never matched by it.
	if tab.Elided(tuple.Fact{Seq: 1, Cols: []uint64{3}}) {
		t.Fatal("short fact matched out-of-range column")
	}
}

func TestRangeCollapse(t *testing.T) {
	tab := NewTable()
	// Contiguous dense keys, inserted out of order, same MaxSeq.
	for _, lo := range []uint64{10, 30, 20, 0, 40} {
		tab.Add(Predicate{Col: 0, Lo: lo, Hi: lo + 9, MaxSeq: 500})
	}
	ranges := tab.Ranges(0)
	if len(ranges) != 1 {
		t.Fatalf("contiguous ranges did not collapse: %v", ranges)
	}
	if ranges[0].Lo != 0 || ranges[0].Hi != 49 {
		t.Fatalf("collapsed to %v", ranges[0])
	}
	// A gap keeps ranges separate.
	tab.Add(Predicate{Col: 0, Lo: 60, Hi: 70, MaxSeq: 500})
	if got := len(tab.Ranges(0)); got != 2 {
		t.Fatalf("ranges = %d, want 2", got)
	}
	// Filling the gap re-collapses.
	tab.Add(Predicate{Col: 0, Lo: 50, Hi: 59, MaxSeq: 500})
	if got := len(tab.Ranges(0)); got != 1 {
		t.Fatalf("ranges after fill = %d, want 1", got)
	}
}

func TestCollapseDifferentMaxSeqKept(t *testing.T) {
	tab := NewTable()
	tab.Add(Predicate{Col: 0, Lo: 0, Hi: 9, MaxSeq: 100})
	tab.Add(Predicate{Col: 0, Lo: 10, Hi: 19, MaxSeq: 200})
	if got := len(tab.Ranges(0)); got != 2 {
		t.Fatalf("ranges = %d, want 2 (different MaxSeq)", got)
	}
	// Fact at seq 150 in [10,19] is elided; in [0,9] it is not.
	if !tab.Elided(fact(150, 15)) {
		t.Fatal("fact under MaxSeq=200 range not elided")
	}
	if tab.Elided(fact(150, 5)) {
		t.Fatal("fact above MaxSeq=100 range elided")
	}
}

func TestAddIdempotent(t *testing.T) {
	tab := NewTable()
	p := Predicate{Col: 0, Lo: 10, Hi: 20, MaxSeq: 99}
	tab.Add(p)
	tab.Add(p)
	tab.Add(p)
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after duplicate adds", tab.Len())
	}
}

func TestOverflowBoundary(t *testing.T) {
	tab := NewTable()
	tab.Add(Predicate{Col: 0, Lo: ^uint64(0) - 5, Hi: ^uint64(0), MaxSeq: 10})
	tab.Add(Predicate{Col: 0, Lo: 0, Hi: 5, MaxSeq: 10})
	if !tab.Elided(fact(1, ^uint64(0))) {
		t.Fatal("max key not elided")
	}
	if !tab.Elided(fact(1, 3)) {
		t.Fatal("min range not elided")
	}
	if tab.Elided(fact(1, 100)) {
		t.Fatal("middle key elided")
	}
}

func TestElidedAgreesWithLinearScan(t *testing.T) {
	// Property: table lookup agrees with checking every predicate.
	f := func(seed uint64, nPred uint8, nFact uint8) bool {
		r := sim.NewRand(seed)
		tab := NewTable()
		var preds []Predicate
		for i := 0; i < int(nPred%20)+1; i++ {
			lo := uint64(r.Intn(1000))
			p := Predicate{
				Col:    r.Intn(2),
				Lo:     lo,
				Hi:     lo + uint64(r.Intn(50)),
				MaxSeq: tuple.Watermark(r.Intn(500)),
			}
			preds = append(preds, p)
			tab.Add(p)
		}
		for i := 0; i < int(nFact); i++ {
			f := fact(tuple.Seq(r.Intn(600)), uint64(r.Intn(1100)), uint64(r.Intn(1100)))
			want := false
			for _, p := range preds {
				if p.Matches(f) {
					want = true
					break
				}
			}
			if tab.Elided(f) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedSize(t *testing.T) {
	// Dense sequential deletions collapse to one range no matter how many
	// predicates are inserted — the paper's no-leak guarantee.
	tab := NewTable()
	for i := uint64(0); i < 10000; i++ {
		tab.Add(Predicate{Col: 0, Lo: i, Hi: i, MaxSeq: 1 << 40})
	}
	if tab.Len() != 1 {
		t.Fatalf("10000 dense deletes left %d ranges", tab.Len())
	}
}

func BenchmarkElided(b *testing.B) {
	tab := NewTable()
	r := sim.NewRand(1)
	for i := 0; i < 1000; i++ {
		lo := uint64(r.Intn(1 << 20))
		tab.Add(Predicate{Col: 0, Lo: lo, Hi: lo + 100, MaxSeq: 1 << 40})
	}
	f := fact(1, 12345)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Cols[0] = uint64(i) & (1<<21 - 1)
		tab.Elided(f)
	}
}
