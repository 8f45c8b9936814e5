package core

import (
	"fmt"
	"slices"

	"purity/internal/layout"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// Check verifies the array's structural invariants: the state a crash at
// any instant must leave behind, since recovery is a set union of
// immutable facts (§4.3). It is the one consistency checker; the crash
// sweep runs it after every recovery, tests after their workloads, and
// purity-inspect -health after a rebuild. It never runs on a serving path.
//
//   - No index entry ahead of NVRAM: every pyramid's flushed watermark is
//     covered by the persisted watermark (the Figure 4 write-ahead
//     invariant, at rest).
//   - The allocation frontier and speculative AUs are disjoint from every
//     live segment's AUs: the frontier bounds the recovery scan, so a live
//     AU in it would sit where new segments will be written.
//   - Every page of every installed patch reads and decodes.
//   - Every addrs and dedup version — live, shadowed or stale — names a
//     segment below nextSegment, so no segment opened next can take an ID
//     a surviving fact already names (recover.go, step 6).
//   - Each seq is carried by the facts of one (relation, key) only. One key
//     may hold a seq more than once: an exact replay is a duplicate, and
//     replay's RemapAddr and RemapDedup move a fact to a new location under
//     its own seq and key. A seq two keys share was issued twice, or
//     stamped into two facts.
//   - Every cached page still matches its checksum. Visit lends rows whose
//     blobs alias cached page bytes, so this is where a write through a
//     borrowed fact shows.
//
// Check changes no fact, segment or watermark. Its page reads are ordinary
// verified reads: they count in the segment-read stats, fill the page
// cache, and repair a damaged unit in place, as any read does. It holds
// world exclusively and then mu, as GC does, so it reads one quiescent
// state. Each check's page reads start at at, and Check returns when the
// last of them finished, as Scrub returns its own reads' completion.
func (a *Array) Check(at sim.Time) (sim.Time, error) {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()

	inUse := map[layout.AU]layout.SegmentID{}
	for id, info := range a.segMap {
		for _, au := range info.AUs {
			inUse[au] = id
		}
	}
	for _, au := range append(a.alloc.Frontier(), a.alloc.Speculative()...) {
		if id, clash := inUse[au]; clash {
			return at, fmt.Errorf("frontier AU %+v belongs to live segment %d", au, id)
		}
	}

	done := at
	for _, relID := range a.relationIDs() {
		p := a.pyr[relID]
		if ft := p.FlushedThrough(); !a.persistedSeq.Covers(ft) {
			return done, fmt.Errorf("relation %d flushed through %d, ahead of persisted %d", relID, ft, a.persistedSeq)
		}
		d, err := p.VerifyPages(at)
		done = max(done, d)
		if err != nil {
			return done, fmt.Errorf("patch page verify: %w", err)
		}
	}

	var bad error
	if err := a.scanSegmentRefs(at, func(relID uint32, f tuple.Fact, seg uint64) bool {
		if seg >= a.nextSegment {
			bad = fmt.Errorf("relation %d fact seq %d names segment %d, not below nextSegment %d", relID, f.Seq, seg, a.nextSegment)
		}
		return bad == nil
	}); err != nil {
		return done, fmt.Errorf("segment-bound scan: %w", err)
	}
	if bad != nil {
		return done, bad
	}

	type owner struct {
		relID uint32
		key   []uint64
	}
	owners := map[tuple.Seq]owner{}
	for _, relID := range a.relationIDs() {
		schema, ok := relation.SchemaFor(relID)
		if !ok {
			return done, fmt.Errorf("relation %d has no schema", relID)
		}
		d, err := a.pyr[relID].Visit(at, nil, nil, true, func(f tuple.Fact) bool {
			key := f.Cols[:schema.KeyCols]
			o, seen := owners[f.Seq]
			if !seen {
				owners[f.Seq] = owner{relID, slices.Clone(key)}
				return true
			}
			if o.relID != relID || !slices.Equal(o.key, key) {
				bad = fmt.Errorf("seq %d carried by relation %d key %v and relation %d key %v", f.Seq, o.relID, o.key, relID, key)
			}
			return bad == nil
		})
		done = max(done, d)
		if err != nil {
			return done, fmt.Errorf("seq-uniqueness scan: %w", err)
		}
		if bad != nil {
			return done, bad
		}
	}

	for _, relID := range a.relationIDs() {
		if err := a.pyr[relID].VerifyCachedPages(); err != nil {
			return done, err
		}
	}
	return done, nil
}
