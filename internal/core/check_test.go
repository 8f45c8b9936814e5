package core

import (
	"slices"
	"strings"
	"testing"

	"purity/internal/relation"
	"purity/internal/tuple"
)

// checkedArray runs a small mixed workload — overwrites, a duplicate
// extent, a snapshot, a clone that diverges, a delete, GC and a flush — so
// that Check has patches, cached pages, sealed segments and a frontier to
// read.
func checkedArray(t *testing.T) *Array {
	t.Helper()
	a := newArray(t)
	db := mustCreate(t, a, "db", 1<<20)
	other := mustCreate(t, a, "other", 1<<20)
	for i := 0; i < 16; i++ {
		mustWrite(t, a, db, int64(i%6)*32<<10, pattern(uint64(i), 32<<10))
	}
	mustWrite(t, a, other, 0, pattern(3, 32<<10)) // a duplicate of one db extent
	snap, _, err := a.Snapshot(0, db, "db.snap")
	if err != nil {
		t.Fatal(err)
	}
	clone, _, err := a.Clone(0, snap, "db.clone")
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, a, clone, 4096, pattern(99, 8192))
	if _, err := a.Delete(0, other); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RunGC(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	return a
}

// plantAddrs commits addrs facts the way a write does, past every check a
// write makes.
func plantAddrs(t *testing.T, a *Array, facts ...tuple.Fact) {
	t.Helper()
	a.world.Lock()
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.world.Unlock()
	if _, _, err := a.commitFactsLocked(0, relation.IDAddrs, facts); err != nil {
		t.Fatal(err)
	}
}

// plantSeqPair plants an addrs fact on a medium no volume uses, then the
// fact second derives from it, and checks that Check's scan sees both.
func plantSeqPair(second func(first tuple.Fact) tuple.Fact) func(*testing.T, *Array) {
	return func(t *testing.T, a *Array) {
		const medium = 1 << 40
		first := relation.AddrRow{Medium: medium, Sector: 8, Segment: 1, PhysLen: 512, Sectors: 8}.Fact(a.seqs.Next())
		plantAddrs(t, a, first)
		plantAddrs(t, a, second(first))
		versions := 0
		if _, err := a.pyr[relation.IDAddrs].Visit(0, nil, nil, true, func(f tuple.Fact) bool {
			if f.Cols[0] == medium {
				versions++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if versions != 2 {
			t.Fatalf("Check's scan sees %d versions, want both planted facts", versions)
		}
	}
}

// TestCheckCatches pins Array.Check from both sides. An array after a
// mixed workload passes, and so do the repeats of a seq that replay makes
// (an exact re-insert, and a RemapAddr copy under the same seq and key at
// a new location). Each other row plants one bad state through the
// engine's internals and must fail with its own invariant's message.
func TestCheckCatches(t *testing.T) {
	cases := []struct {
		name   string
		inject func(t *testing.T, a *Array)
		want   string // a fragment of Check's error; empty when Check passes
	}{
		{name: "clean", inject: func(*testing.T, *Array) {}},
		{name: "exact re-insert", inject: plantSeqPair(tuple.Fact.Clone)},
		{name: "remapped", inject: plantSeqPair(func(first tuple.Fact) tuple.Fact {
			return relation.RemapAddr(first, 1, 4096, 1024)
		})},
		{name: "two keys, one seq", want: "carried by relation", inject: plantSeqPair(func(first tuple.Fact) tuple.Fact {
			r := relation.AddrFromFact(first)
			r.Sector += r.Sectors
			return r.Fact(first.Seq)
		})},
		{name: "segment past nextSegment", want: "not below nextSegment", inject: func(t *testing.T, a *Array) {
			a.mu.Lock()
			seg := a.nextSegment + 1
			a.mu.Unlock()
			plantAddrs(t, a, relation.AddrRow{Medium: 1 << 40, Sector: 8, Segment: seg, PhysLen: 512, Sectors: 8}.Fact(a.seqs.Next()))
		}},
		{name: "frontier AU in a live segment", want: "belongs to live segment", inject: func(t *testing.T, a *Array) {
			a.mu.Lock()
			defer a.mu.Unlock()
			live := a.segMap[slices.Min(a.sealedIDsLocked())].AUs[0]
			a.alloc.SetFrontier(append(a.alloc.Frontier(), live))
		}},
		{name: "flushed past the watermark", want: "ahead of persisted", inject: func(t *testing.T, a *Array) {
			a.mu.Lock()
			defer a.mu.Unlock()
			a.persistedSeq = 0
		}},
		{name: "patch page fails its checksum", want: "patch page verify", inject: func(t *testing.T, a *Array) {
			// A patch whose first page ref is one byte off reads bytes
			// that are not that page. It covers the same seqs, so it
			// replaces the patch it copies.
			p := a.pyr[relation.IDAddrs]
			bad := *p.Patches()[0]
			bad.Pages = slices.Clone(bad.Pages)
			bad.Pages[0].Ref.Off++
			if err := p.AddPatch(&bad); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "cached page written through a borrowed fact", want: "cached page", inject: func(t *testing.T, a *Array) {
			// A volume row's blob (its name) aliases the cached page it
			// was decoded from.
			written := false
			if _, err := a.pyr[relation.IDVolumes].Visit(0, nil, nil, true, func(f tuple.Fact) bool {
				if len(f.Blob) == 0 {
					return true
				}
				f.Blob[0] ^= 0xff
				written = true
				return false
			}); err != nil {
				t.Fatal(err)
			}
			if !written {
				t.Fatal("no volume row with a name to write through")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := checkedArray(t)
			tc.inject(t, a)
			_, err := a.Check(0)
			if err != nil {
				t.Log(err)
			}
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Check failed a consistent array: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("Check passed; want an error with %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("Check = %v; want an error with %q", err, tc.want)
			}
		})
	}
}
