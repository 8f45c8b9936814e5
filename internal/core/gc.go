package core

import (
	"fmt"
	"sort"

	"purity/internal/cblock"
	"purity/internal/layout"
	"purity/internal/medium"
	"purity/internal/relation"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// GCReport summarizes one garbage-collection run.
type GCReport struct {
	SegmentsExamined  int
	SegmentsReclaimed int
	BytesMoved        int64
	CBlocksMoved      int
	MediumsElided     int
	MediumsFlattened  int
	LiveBytesTotal    int64
}

// addrRef is one address-map reference to a cblock.
type addrRef struct {
	medium, sector, inner, sectors, flags uint64
}

// cblockRefs aggregates the live references to one cblock.
type cblockRefs struct {
	physLen uint64
	refs    []addrRef
}

// RunGC performs one full garbage-collection cycle (§4.5, §4.7, §4.10):
//
//  1. Elide mediums no longer reachable from any live volume or snapshot.
//  2. Compute exact per-segment liveness from the address map (§3.3's
//     aggregate, recomputed rather than maintained).
//  3. Evacuate sealed segments under the live threshold: live cblocks move
//     to fresh segments — dedup-shared cblocks segregated into their own
//     class — and the old segment's AUs are erased and freed.
//  4. Flatten medium chains deeper than two hops so reads never touch more
//     than three cblocks (§4.6).
func (a *Array) RunGC(at sim.Time) (GCReport, sim.Time, error) {
	// GC recomputes cross-volume invariants (exact liveness, candidacy):
	// quiesce the commit lanes for the whole cycle.
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	var rep GCReport

	done, err := a.elideUnreachableMediumsLocked(at, &rep)
	if err != nil {
		return rep, done, err
	}

	live, done, err := a.computeLivenessLocked(done)
	if err != nil {
		return rep, done, err
	}
	liveBytes := map[layout.SegmentID]int64{}
	for seg, blocks := range live {
		var sum int64
		for _, c := range blocks {
			sum += int64(c.physLen)
		}
		liveBytes[seg] = sum
		rep.LiveBytesTotal += sum
	}

	// Metadata liveness: segments holding pyramid patch pages are live via
	// the patch catalogs, not the address map. They become reclaimable
	// only after merges supersede every patch that points into them.
	metaLive := map[layout.SegmentID]int64{}
	for _, relID := range a.relationIDs() {
		for _, patch := range a.pyr[relID].Patches() {
			for _, pg := range patch.Pages {
				metaLive[layout.SegmentID(pg.Ref.Segment)] += int64(pg.Ref.Len)
			}
		}
	}
	for id, bytes := range metaLive {
		liveBytes[id] += bytes
		rep.LiveBytesTotal += bytes
	}

	// Candidates: sealed, below threshold, not currently open, and holding
	// no live metadata.
	var candidates []layout.SegmentID
	for id, info := range a.segMap {
		if _, open := a.openByID[id]; open || !info.Sealed || metaLive[id] > 0 {
			continue
		}
		rep.SegmentsExamined++
		capacity := int64(info.Stripes) * int64(a.cfg.Layout.StripeCapacity())
		if capacity <= 0 {
			continue
		}
		if float64(liveBytes[id]) < a.cfg.GCLiveThreshold*float64(capacity) {
			candidates = append(candidates, id)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if liveBytes[candidates[i]] != liveBytes[candidates[j]] {
			return liveBytes[candidates[i]] < liveBytes[candidates[j]]
		}
		return candidates[i] < candidates[j]
	})

	for _, id := range candidates {
		d, err := a.evacuateSegmentLocked(done, id, live[id], &rep)
		if err != nil {
			return rep, d, err
		}
		done = d
	}

	done, err = a.flattenDeepMediumsLocked(done, &rep)
	if err != nil {
		return rep, done, err
	}

	a.stats.GCRuns++
	a.stats.GCSegsReclaimed += int64(rep.SegmentsReclaimed)
	a.stats.GCBytesMoved += rep.BytesMoved
	return rep, done, nil
}

// computeLivenessLocked computes, for every medium, the per-sector *winner*
// extents — address entries may overlap, and for each sector only the
// highest-sequence covering entry is visible. Only winner extents are live;
// evacuation rewrites exactly them (with new sequence numbers), so shadowed
// old data can never be resurrected. Caller holds mu.
func (a *Array) computeLivenessLocked(at sim.Time) (map[layout.SegmentID]map[uint64]*cblockRefs, sim.Time, error) {
	type entry struct {
		start, end uint64 // [start, end) sectors
		seq        tuple.Seq
		row        relation.AddrRow
	}
	perMedium := make(map[uint64][]entry)
	done, err := a.pyr[relation.IDAddrs].Visit(at, nil, nil, true, func(f tuple.Fact) bool {
		r := relation.AddrFromFact(f)
		if !a.addrValid(r) {
			return true // stale post-crash reference: logically retracted
		}
		perMedium[r.Medium] = append(perMedium[r.Medium], entry{
			start: r.Sector, end: r.Sector + r.Sectors, seq: f.Seq, row: r,
		})
		return true
	})
	if err != nil {
		return nil, done, err
	}

	live := make(map[layout.SegmentID]map[uint64]*cblockRefs)
	addRef := func(r relation.AddrRow, start, count uint64) {
		seg := layout.SegmentID(r.Segment)
		blocks := live[seg]
		if blocks == nil {
			blocks = make(map[uint64]*cblockRefs)
			live[seg] = blocks
		}
		c := blocks[r.SegOff]
		if c == nil {
			c = &cblockRefs{physLen: r.PhysLen}
			blocks[r.SegOff] = c
		}
		c.refs = append(c.refs, addrRef{
			medium: r.Medium, sector: start,
			inner:   r.Inner + (start - r.Sector),
			sectors: count, flags: r.Flags,
		})
	}

	mediums := make([]uint64, 0, len(perMedium))
	for m := range perMedium {
		mediums = append(mediums, m)
	}
	sort.Slice(mediums, func(i, j int) bool { return mediums[i] < mediums[j] })
	for _, m := range mediums {
		entries := perMedium[m]
		// Sweep: at every boundary the winner may change; between
		// boundaries it is the max-seq covering entry.
		boundaries := make([]uint64, 0, 2*len(entries))
		for _, e := range entries {
			boundaries = append(boundaries, e.start, e.end)
		}
		sort.Slice(boundaries, func(i, j int) bool { return boundaries[i] < boundaries[j] })
		boundaries = dedupUint64(boundaries)
		for bi := 0; bi < len(boundaries)-1; bi++ {
			lo, hi := boundaries[bi], boundaries[bi+1]
			var winner *entry
			for i := range entries {
				e := &entries[i]
				if e.start <= lo && e.end >= hi {
					if winner == nil || e.seq > winner.seq {
						winner = e
					}
				}
			}
			if winner != nil {
				addRef(winner.row, lo, hi-lo)
			}
		}
	}
	return live, done, nil
}

func dedupUint64(v []uint64) []uint64 {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// evacuateSegmentLocked moves a segment's live cblocks out, then erases and
// frees its AUs. Caller holds mu.
func (a *Array) evacuateSegmentLocked(at sim.Time, id layout.SegmentID, blocks map[uint64]*cblockRefs, rep *GCReport) (sim.Time, error) {
	done := at
	// A crash before anything moves leaves the victim segment untouched
	// and fully authoritative.
	a.crash.Hit("gc.evac.begin")
	var newFacts []tuple.Fact

	// Stable move order keeps runs deterministic.
	offs := make([]uint64, 0, len(blocks))
	for off := range blocks {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })

	touched := map[segClass]bool{}
	for _, off := range offs {
		c := blocks[off]
		frame, d, err := a.readSegment(done, id, int64(off), int(c.physLen), a.policyMode(), cblock.Check)
		done = d
		if err != nil {
			return done, fmt.Errorf("core: gc read of segment %d: %w", id, err)
		}
		// Segregate cblocks with multiple references or dedup references:
		// they are less likely to die together with ordinary data (§4.7).
		class := classGC
		if len(c.refs) > 1 {
			class = classDedup
		} else {
			for _, r := range c.refs {
				if r.flags&relation.AddrFlagDedup != 0 {
					class = classDedup
				}
			}
		}
		newSeg, newOff, d2, err := a.appendDataLocked(done, class, frame)
		done = d2
		if err != nil {
			return done, err
		}
		touched[class] = true
		// Copies exist in unsealed destinations but no facts reference
		// them yet: a crash here orphans the copies, and the old segment
		// (never retired) still serves every read.
		a.crash.Hit("gc.evac.moved")
		rep.BytesMoved += int64(c.physLen)
		rep.CBlocksMoved++
		for _, r := range c.refs {
			newFacts = append(newFacts, relation.AddrRow{
				Medium: r.medium, Sector: r.sector,
				Segment: uint64(newSeg), SegOff: uint64(newOff), PhysLen: c.physLen,
				Inner: r.inner, Sectors: r.sectors, Flags: r.flags,
			}.Fact(a.seqs.Next()))
		}
	}

	// Seal the destination segments before committing facts that reference
	// them: sealed segments are rediscoverable after a crash (AU trailers,
	// frontier scan), so the redirects never dangle. The unused remainder
	// of each destination is the price of crash safety.
	for class := segClass(0); class < numClasses; class++ {
		if !touched[class] {
			continue
		}
		d, err := a.sealSlotLocked(done, &a.slots[class])
		if err != nil {
			return d, err
		}
		done = d
	}
	a.crash.Hit("gc.evac.sealed")
	_, done, err := a.commitFactsLocked(done, relation.IDAddrs, newFacts)
	if err != nil {
		return done, err
	}
	// Every redirect fact is committed but the victim is not yet retired: a
	// crash here leaves both copies live, and the higher-sequence redirects
	// win every resolution.
	a.crash.Hit("gc.evac.redirected")

	// Retire the segment: dead fact, erase, free.
	if _, done, err = a.commitFactsLocked(done, relation.IDSegments, []tuple.Fact{relation.SegmentRow{
		Segment: uint64(id), State: relation.SegmentDead,
	}.Fact(a.seqs.Next())}); err != nil {
		return done, err
	}
	// The SegmentDead fact is durable: recovery must honor the retirement
	// even though the victim's AU trailers are still intact on disk.
	a.crash.Hit("gc.retire.dead")
	info := a.segMap[id]
	for _, au := range info.AUs {
		drive := a.shelf.Drive(au.Drive)
		if drive.Failed() {
			continue
		}
		//lint:ignore lockflow erase must complete before Free republishes the AUs (free-AUs-are-erased invariant), and GC retirement is a background path, not a foreground op
		if d, err := drive.Erase(done, au.Offset(a.cfg.Layout)); err == nil && d > done {
			done = d
		}
	}
	a.crash.Hit("gc.retire.erased")
	a.alloc.Free(info.AUs)
	a.segMu.Lock()
	delete(a.segMap, id)
	a.segMu.Unlock()
	a.rdMu.Lock()
	a.cblocks.invalidateSegment(uint64(id))
	a.rdMu.Unlock()
	a.reader.InvalidateSegment(id)
	a.clearSegmentLost(id)
	rep.SegmentsReclaimed++
	return done, nil
}

// elideUnreachableMediumsLocked walks the medium graph from live volumes
// and elides every medium nothing references. Caller holds mu.
func (a *Array) elideUnreachableMediumsLocked(at sim.Time, rep *GCReport) (sim.Time, error) {
	done := at
	roots := map[uint64]bool{}
	d, err := a.pyr[relation.IDVolumes].Visit(done, nil, nil, false, func(f tuple.Fact) bool {
		row := relation.VolumeFromFact(f)
		if row.State != relation.VolumeDeleted {
			roots[row.Medium] = true
		}
		return true
	})
	if err != nil {
		return d, err
	}
	done = d

	all := map[uint64]bool{}
	edges := map[uint64][]uint64{} // source -> targets
	d, err = a.pyr[relation.IDMediums].Visit(done, nil, nil, false, func(f tuple.Fact) bool {
		row := relation.MediumFromFact(f)
		all[row.Source] = true
		if row.Target != relation.NoMedium {
			edges[row.Source] = append(edges[row.Source], row.Target)
		}
		return true
	})
	if err != nil {
		return d, err
	}
	done = d

	reachable := map[uint64]bool{}
	var stack []uint64
	for m := range roots {
		stack = append(stack, m)
	}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachable[m] {
			continue
		}
		reachable[m] = true
		stack = append(stack, edges[m]...)
	}

	victims := make([]uint64, 0)
	for m := range all {
		if !reachable[m] {
			victims = append(victims, m)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	for _, m := range victims {
		d, err := a.elideMediumLocked(done, m)
		if err != nil {
			return d, err
		}
		done = d
		rep.MediumsElided++
	}
	return done, nil
}

// flattenDeepMediumsLocked materializes direct address mappings on volume
// leaf mediums whose chains run deeper than two hops. No data moves — only
// metadata — after which the leaf's medium row drops its underlay. Caller
// holds mu.
func (a *Array) flattenDeepMediumsLocked(at sim.Time, rep *GCReport) (sim.Time, error) {
	done := at
	type leaf struct{ medium, sectors uint64 }
	var leaves []leaf
	d, err := a.pyr[relation.IDVolumes].Visit(done, nil, nil, false, func(f tuple.Fact) bool {
		row := relation.VolumeFromFact(f)
		if row.State == relation.VolumeActive {
			leaves = append(leaves, leaf{row.Medium, row.SizeSectors})
		}
		return true
	})
	if err != nil {
		return d, err
	}
	done = d

	for _, lf := range leaves {
		exts, d, err := medium.ResolveAll(done, (*lookupAdapter)(a), lf.medium, 0, lf.sectors)
		done = d
		if err != nil {
			return done, err
		}
		if medium.MaxDepth(exts) <= 2 {
			continue
		}
		var facts []tuple.Fact
		durable := true
		sector := uint64(0)
		for _, ext := range exts {
			if !ext.Zero && ext.Depth > 0 {
				// Only reference flush-durable cblocks; a crash must not
				// leave flattened facts pointing at unflushed segios.
				if _, _, err := a.fetchDurableCBlock(done, ext.Addr.Segment, ext.Addr.SegOff, int(ext.Addr.PhysLen)); err != nil {
					durable = false
				} else {
					facts = append(facts, relation.AddrRow{
						Medium: lf.medium, Sector: sector,
						Segment: ext.Addr.Segment, SegOff: ext.Addr.SegOff, PhysLen: ext.Addr.PhysLen,
						Inner: ext.Inner, Sectors: ext.Sectors, Flags: ext.Addr.Flags | relation.AddrFlagDedup,
					}.Fact(a.seqs.Next()))
				}
			}
			sector += ext.Sectors
		}
		if _, done, err = a.commitFactsLocked(done, relation.IDAddrs, facts); err != nil {
			return done, err
		}
		if durable {
			// Every mapped extent is materialized: cut the chain.
			if _, done, err = a.commitFactsLocked(done, relation.IDMediums, []tuple.Fact{relation.MediumRow{
				Source: lf.medium, Start: 0, End: lf.sectors - 1,
				Target: relation.NoMedium, Status: relation.MediumRW,
			}.Fact(a.seqs.Next())}); err != nil {
				return done, err
			}
			rep.MediumsFlattened++
			a.stats.Flattened++
		}
	}
	return done, nil
}

// ScrubReport summarizes a scrub pass (§5.1).
type ScrubReport struct {
	SegmentsScanned    int
	StripesVerified    int
	BadWriteUnits      int
	WriteUnitsRepaired int
	SegmentsRepaired   int
	// Deferred marks a paced step that did no work because the SLO
	// governor had foreground reads over their tail budget.
	Deferred bool
}

// Scrub verifies every sealed segment's write units against their trailer
// CRCs and repairs damage *in place*: a bad unit is reconstructed from its
// K healthy peers and rewritten to its own AU (the FTL relocates the worn
// pages). This is the proactive pass that catches latent bit errors before
// a real drive failure stacks on top of them (§5.1). Unlike evacuation it
// moves no live data and works for metadata segments too.
func (a *Array) Scrub(at sim.Time) (ScrubReport, sim.Time, error) {
	// Scrub rewrites damaged write units in place; hold the world lock so
	// lane commits never race a repair (conservative — repairs touch only
	// sealed segments, but sealed-ness itself can change under a rotation).
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	ids := a.sealedIDsLocked()
	a.mu.Unlock()

	var rep ScrubReport
	done := at
	for _, id := range ids {
		a.mu.Lock()
		d, err := a.scrubSegmentLocked(done, id, &rep)
		a.mu.Unlock()
		done = d
		if err != nil {
			return rep, done, err
		}
	}
	a.mu.Lock()
	a.stats.ScrubPasses++
	a.mu.Unlock()
	return rep, done, nil
}

// ScrubStep advances the background scrub by up to maxSegments sealed
// segments, resuming from a persistent cursor — the paced walker shape of
// BackgroundDedup, so the engine can interleave scrub with foreground work
// instead of stalling on a whole-array pass. Wrapping past the last
// segment counts a completed pass.
func (a *Array) ScrubStep(at sim.Time, maxSegments int) (ScrubReport, sim.Time, error) {
	// SLO arbitration (§4.4): while the foreground read tail is over
	// budget, background scrub yields — the step is a counted no-op and the
	// caller's pacing loop simply retries later. Checked before the world
	// lock so a deferred step costs nothing.
	if a.gov.Threatened() {
		a.gov.NoteDeferral()
		a.mu.Lock()
		a.stats.ScrubDeferrals++
		a.mu.Unlock()
		return ScrubReport{Deferred: true}, at, nil
	}
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	var rep ScrubReport
	done := at
	if maxSegments <= 0 {
		return rep, done, nil
	}
	ids := a.sealedIDsLocked()
	if len(ids) == 0 {
		return rep, done, nil
	}
	// Resume strictly after the cursor. When the step reaches the end of
	// the list it counts a completed pass and resets; the next step starts
	// over from the lowest segment.
	start := sort.Search(len(ids), func(i int) bool { return ids[i] > a.scrubCursor })
	for n := 0; n < maxSegments && start+n < len(ids); n++ {
		id := ids[start+n]
		d, err := a.scrubSegmentLocked(done, id, &rep)
		done = d
		a.scrubCursor = id
		if err != nil {
			return rep, done, err
		}
	}
	if a.scrubCursor >= ids[len(ids)-1] {
		a.stats.ScrubPasses++
		a.scrubCursor = 0
	}
	return rep, done, nil
}

// InjectBitFlips flips one bit in each of up to n distinct write units of
// sealed segments — deterministic latent-damage injection for the E12
// experiment and the scrub tests. Lost shards and failed drives are
// skipped, and no stripe takes more than ParityShards damaged units: that
// is the regime scrub exists for (repair latent errors while they are
// still within what the code can reconstruct — beyond it, only rebuild
// after a whole-drive loss applies). Returns how many write units were
// damaged.
func (a *Array) InjectBitFlips(seed uint64, n int) int {
	a.world.Lock()
	defer a.world.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	r := sim.NewRand(seed)
	ids := a.sealedIDsLocked()
	if len(ids) == 0 {
		return 0
	}
	type stripeKey struct {
		id layout.SegmentID
		s  int
	}
	type unit struct {
		au layout.AU
		s  int
	}
	perStripe := map[stripeKey]int{}
	hit := map[unit]bool{}
	flipped := 0
	for attempt := 0; attempt < n*20 && flipped < n; attempt++ {
		info := a.segMap[ids[r.Intn(len(ids))]]
		if info.Stripes == 0 {
			continue
		}
		slot := r.Intn(len(info.AUs))
		au := info.AUs[slot]
		if a.shardLost(info.ID, slot) || a.shelf.Drive(au.Drive).Failed() {
			continue
		}
		s := r.Intn(info.Stripes)
		if perStripe[stripeKey{info.ID, s}] >= a.cfg.Layout.ParityShards {
			continue
		}
		u := unit{au, s}
		if hit[u] {
			continue
		}
		hit[u] = true
		perStripe[stripeKey{info.ID, s}]++
		off := au.Offset(a.cfg.Layout) + int64(s)*int64(a.cfg.Layout.WriteUnit) +
			int64(r.Intn(a.cfg.Layout.WriteUnit))
		a.shelf.Drive(au.Drive).FlipBit(off, uint(r.Intn(8)))
		flipped++
	}
	return flipped
}

// sealedIDsLocked returns the sorted IDs of sealed segments. Caller holds
// mu.
func (a *Array) sealedIDsLocked() []layout.SegmentID {
	ids := make([]layout.SegmentID, 0, len(a.segMap))
	for id, info := range a.segMap {
		if info.Sealed {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// scrubSegmentLocked CRC-checks one sealed segment's write units and
// repairs mismatches in place. Caller holds mu.
func (a *Array) scrubSegmentLocked(at sim.Time, id layout.SegmentID, rep *ScrubReport) (sim.Time, error) {
	done := at
	info, ok := a.segMap[id]
	if !ok || !info.Sealed {
		return done, nil
	}
	rep.SegmentsScanned++
	a.stats.ScrubSegments++
	var rstats layout.ReadStats
	segRepaired := 0
	for s := 0; s < info.Stripes; s++ {
		bad, repaired, d := a.reader.ScrubStripe(done, info, s, &rstats)
		done = d
		rep.StripesVerified++
		rep.BadWriteUnits += bad
		rep.WriteUnitsRepaired += repaired
		segRepaired += repaired
	}
	if segRepaired > 0 {
		rep.SegmentsRepaired++
	}
	a.stats.ScrubWUsRepaired += int64(segRepaired)
	a.addSegRead(rstats)
	return done, nil
}
