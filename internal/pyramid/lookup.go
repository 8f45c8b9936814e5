package pyramid

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"purity/internal/pagecodec"
	"purity/internal/sim"
	"purity/internal/tuple"
)

func seqOf(v uint64) tuple.Seq { return tuple.Seq(v) }

// stackCols is the widest schema's column count (the address map's): the
// point lookups below keep their target key and row buffers in arrays of
// this size on the stack, and only a wider schema spills them to the heap.
const stackCols = 8

// rowBuf returns buf[:n], or a fresh slice when buf is too short.
func rowBuf(buf []uint64, n int) []uint64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]uint64, n)
}

// direction is the key a point search lands on from its target key tk: the
// greatest key ≤ tk, tk itself, or the least key ≥ tk. As a sign it is the
// side of tk the key lies on: int(d)*CompareKeys(x, y) < 0 says x is nearer.
type direction int

const (
	floor direction = -1
	exact direction = 0
	ceil  direction = 1
)

// Get returns the newest non-elided fact with exactly this key.
func (p *Pyramid) Get(at sim.Time, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	var buf [stackCols]uint64
	f, ok, done, err := p.GetRow(at, key, rowBuf(buf[:], p.cfg.Schema.Cols))
	if !ok {
		return tuple.Fact{}, false, done, err
	}
	return f.Clone(), true, done, err
}

// GetRow is Get without the copy. A fact found in a patch is decoded into
// cols, which holds Schema.Cols columns; one found in the memtable is the
// memtable's own. Either way the fact is lent, as Visit lends: its Blob
// lies in the memtable or a cached page, nobody writes through it, and a
// caller that keeps any of it keeps a copy.
func (p *Pyramid) GetRow(at sim.Time, key, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	h := keyHash(key, p.cfg.Schema.KeyCols)
	var versionBuf [4]tuple.Fact
	versions, patches := p.memRun(versionBuf[:0], key, h, exact)
	for _, f := range versions {
		if !p.elided(f) {
			return f, true, at, nil
		}
	}
	return p.getFromPatches(at, patches, key, h, cols)
}

// getFromPatches is an exact lookup's patch walk, newest patch first, and
// the one copy of its rule: a patch whose key filter rules key out opens no
// page, and the first patch holding a live version of key holds the newest
// (patches hold disjoint, ordered sequence ranges). h is key's keyHash. The
// fact found is decoded into cols.
func (p *Pyramid) getFromPatches(at sim.Time, patches []*Patch, key []uint64, h uint64, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	s := patchSource{p: p}
	for _, patch := range patches {
		if !patch.filter.mayContain(h) {
			continue
		}
		s.patch = patch
		f, ok, done, err := s.find(at, key, exact, cols)
		at = done
		if err != nil || ok {
			return f, ok, at, err
		}
	}
	return tuple.Fact{}, false, at, nil
}

// memRun is memRunLocked under mu in read mode, with the patch list's
// header: the list is copy-on-write, so the header is the snapshot. The rows
// are copied out (a later Insert reorders the memtable's headers in place).
func (p *Pyramid) memRun(dst []tuple.Fact, tk []uint64, h uint64, d direction) ([]tuple.Fact, []*Patch) {
	p.mu.RLock()
	dst = p.memRunLocked(dst, tk, h, d)
	patches := p.patches
	p.mu.RUnlock()
	return dst, patches
}

// GetFloor returns the newest fact whose key is prefix++[c] with the
// largest c ≤ col — a floor lookup on the final key column within a fixed
// prefix. The address map uses it to find the cblock covering a sector
// (entries are keyed by starting sector) and the medium table to find the
// range covering an offset.
//
// Elide predicates in this system range over key columns, so within one key
// elision is monotone in sequence number: if a key's newest version is
// elided, every version is. A key whose newest version is elided is
// therefore dead, and GetFloor steps down to the next lower key.
func (p *Pyramid) GetFloor(at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	return p.searchPrefix(at, prefix, col, floor)
}

// GetCeil returns the newest non-elided fact whose key is prefix++[c] with
// the smallest c ≥ col, stepping up past dead keys as GetFloor steps down.
// The read path uses it to bound a gap — "how far until the next
// address-map entry shadows the underlying medium".
func (p *Pyramid) GetCeil(at sim.Time, prefix []uint64, col uint64) (tuple.Fact, bool, sim.Time, error) {
	return p.searchPrefix(at, prefix, col, ceil)
}

func (p *Pyramid) searchPrefix(at sim.Time, prefix []uint64, col uint64, d direction) (tuple.Fact, bool, sim.Time, error) {
	// Programmer-error guard, not data validation: prefixes are built by
	// engine code from compiled-in schemas, never from on-disk or replayed
	// bytes, so a mismatch here is a caller bug and panicking is correct.
	// (Contrast Insert's SchemaError, which IS reachable from corrupt data.)
	if len(prefix)+1 != p.cfg.Schema.KeyCols {
		panic("pyramid: GetFloor and GetCeil take a prefix of all but the last key column")
	}
	var tkBuf [stackCols]uint64
	return p.search(at, append(append(tkBuf[:0], prefix...), col), d)
}

// search is the floor and ceiling lookups: the memtable and then the
// patches, newest first, each asked for the newest version of the key d
// lands on from tk. They take the nearest key over all sources, at its
// max-seq version; a key outside tk's prefix is no answer, and a key whose
// newest version is elided is dead, so the search steps past it and
// retries.
//
// The memtable rows are copied out (memRun) into a stack array of four
// (more spill to the heap). Each patch's candidate is decoded into cand; one that wins
// is copied into bestCols, since the next patch decodes over cand.
func (p *Pyramid) search(at sim.Time, tk []uint64, d direction) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	var versionBuf [4]tuple.Fact
	var candBuf, bestBuf [stackCols]uint64
	cand := rowBuf(candBuf[:], p.cfg.Schema.Cols)
	bestCols := rowBuf(bestBuf[:], p.cfg.Schema.Cols)
	for {
		versions, patches := p.memRun(versionBuf[:0], tk, 0, d)

		var best tuple.Fact
		found := len(versions) > 0
		if found {
			best = versions[0]
		}
		s := patchSource{p: p}
		for _, patch := range patches {
			s.patch = patch
			f, ok, dn, err := s.find(done, tk, d, cand)
			done = dn
			if err != nil {
				return tuple.Fact{}, false, done, err
			}
			if !ok {
				continue
			}
			if found {
				if c := int(d) * tuple.CompareKeys(f.Cols, best.Cols, k); c > 0 || (c == 0 && f.Seq <= best.Seq) {
					continue
				}
			}
			copy(bestCols, f.Cols)
			best, found = tuple.Fact{Seq: f.Seq, Cols: bestCols, Blob: f.Blob}, true
		}
		if !found || tuple.CompareKeys(best.Cols, tk, k-1) != 0 {
			return tuple.Fact{}, false, done, nil
		}
		if !p.elided(best) {
			return best.Clone(), true, done, nil
		}
		// Dead key: step past it (d is ±1) and retry.
		c := best.Cols[k-1]
		if d == floor && c == 0 || d == ceil && c == ^uint64(0) {
			return tuple.Fact{}, false, done, nil
		}
		tk[k-1] = c + uint64(d)
	}
}

// memRunLocked appends to dst the memtable's versions of the key d lands on
// from tk: for exact all of them, newest first, and for floor and ceil only
// the newest. An exact search of a key the memtable's filter rules out ends
// there; h is tk's keyHash, and only exact reads it. Each run is
// binary-searched twice: for floor and ceil first to find the key it lands
// on, the nearest over all runs winning, and then for that key's versions.
// The order is (seq desc, insertion asc), as one stable sort of the
// memtable would give: runs are visited oldest first, each holds its
// versions of a key in that order, and the sort below is stable. Caller
// holds mu.
func (p *Pyramid) memRunLocked(dst []tuple.Fact, tk []uint64, h uint64, d direction) []tuple.Fact {
	if d == exact && !p.memFilter.mayContain(h) {
		return dst
	}
	k := p.cfg.Schema.KeyCols
	land := tk
	if d != exact {
		// A run's ceiling is row i, and so is its floor if row i is tk;
		// otherwise the floor is row i-1.
		land = nil
		for r := range p.runEnds {
			run := p.run(r)
			i := firstGE(run, tk, k)
			if d == floor && (i == len(run) || tuple.CompareKeys(run[i].Cols, tk, k) != 0) {
				i--
			}
			if i >= 0 && i < len(run) && (land == nil || int(d)*tuple.CompareKeys(run[i].Cols, land, k) < 0) {
				land = run[i].Cols
			}
		}
		if land == nil {
			return dst
		}
	}
	for r := range p.runEnds {
		run := p.run(r)
		for i := firstGE(run, land, k); i < len(run) && tuple.CompareKeys(run[i].Cols, land, k) == 0; i++ {
			if d == exact || len(dst) == 0 {
				dst = append(dst, run[i])
			} else if run[i].Seq > dst[0].Seq {
				dst[0] = run[i]
			}
			if d != exact {
				break // a run's first version of a key is its newest
			}
		}
	}
	if len(dst) > 1 {
		slices.SortStableFunc(dst, func(a, b tuple.Fact) int { return cmp.Compare(b.Seq, a.Seq) })
	}
	return dst
}

// run returns the memtable's run r, oldest first. Caller holds mu.
func (p *Pyramid) run(r int) []tuple.Fact {
	lo := 0
	if r > 0 {
		lo = p.runEnds[r-1]
	}
	return p.mem[lo:p.runEnds[r]]
}

// firstGE returns the first row of run, which is in key order, whose key is
// ≥ tk.
func firstGE(run []tuple.Fact, tk []uint64, k int) int {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := run[mid].Cols; c[0] < tk[0] || c[0] == tk[0] && tuple.CompareKeys(c, tk, k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- The patch cursor and merged scans ----------------------------------

// patchSource is the one cursor over a patch: Visit and merges step it
// forward, and a point lookup positions it at one key (find). It opens pages
// through the cache, in order, as the stream reaches them: the page-open
// sequence is all the device model sees of a lookup (DESIGN.md "Read path"),
// so a seek changes what is decoded, never what is opened. A stream bounded
// by hi decodes one row at a time, into its cols buffer, and ends at the
// first key above hi; an unbounded one (hi nil: recovery, census and listing
// scans, merges) will read every row and decodes pages whole.
type patchSource struct {
	p     *Pyramid
	patch *Patch
	hi    []uint64 // inclusive upper bound; nil is open
	cols  []uint64 // bounded: the row buffer cur borrows

	pageIdx int // page of pg; -1 before the first open
	pg      *pagecodec.Page
	pos     int          // current row of pg
	rows    []tuple.Fact // unbounded: pg decoded whole, on first peek
	cur     tuple.Fact   // bounded: row pos decoded into cols, on first peek
	have    bool
	eof     bool
}

func newPatchSource(p *Pyramid, patch *Patch, hi, cols []uint64) patchSource {
	return patchSource{p: p, patch: patch, hi: hi, cols: cols, pageIdx: -1}
}

// settle makes pos name a row: while it is past the current page's end (or
// nothing is open yet) the next page is opened. The stream ends after the
// last page, or at a row above hi.
func (s *patchSource) settle(at sim.Time) (sim.Time, error) {
	s.have = false
	for s.pg == nil || s.pos >= s.pg.RowCount() {
		s.pageIdx++
		if s.pageIdx >= len(s.patch.Pages) {
			s.eof = true
			return at, nil
		}
		pg, d, err := s.p.openPage(at, s.patch.Pages[s.pageIdx].Ref)
		at = d
		if err != nil {
			return at, err
		}
		s.pg, s.pos, s.rows = pg, 0, nil
	}
	if k := len(s.hi); k > 0 {
		s.eof = tuple.CompareKeys(s.pg.Keys()[s.pos*k:], s.hi, k) > 0
	}
	return at, nil
}

// seek moves forward to the first row with key ≥ lo. It opens exactly the
// pages a row-by-row skip would — every page up to the landing page — but
// decodes none of them: rows ascend across pages, so a page whose successor
// starts below lo lies wholly below lo, and the landing row is a binary
// search of the page's key cache.
func (s *patchSource) seek(at sim.Time, lo []uint64) (sim.Time, error) {
	k := s.p.cfg.Schema.KeyCols
	pages := s.patch.Pages
	for !s.eof {
		if next := s.pageIdx + 1; next < len(pages) && tuple.CompareKeys(pages[next].KeyMin, lo, k) < 0 {
			s.pos = s.pg.RowCount()
		} else if s.pos = s.pg.FirstGE(lo); s.pos < s.pg.RowCount() {
			return s.settle(at)
		}
		var err error
		if at, err = s.settle(at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// find positions the stream afresh at tk for a point search in direction d
// and returns the newest version of the key it lands on, decoded into cols
// (for exact, tk's newest non-elided version). It opens the last page whose
// KeyMin ≤ tk — page 0, for a ceiling, when there is none — and lands on
// the page's first row ≥ tk; only a ceiling reads on into the next page,
// and only when that row is past the page's end. writePatch never splits a
// key's versions across pages and KeyMin is a page's first row, so the key
// found has its whole run in the open page.
func (s *patchSource) find(at sim.Time, tk []uint64, d direction, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
	k, pages := s.p.cfg.Schema.KeyCols, s.patch.Pages
	pi := sort.Search(len(pages), func(i int) bool { return tuple.CompareKeys(pages[i].KeyMin, tk, k) > 0 }) - 1
	if pi < 0 && d == ceil && len(pages) > 0 {
		pi = 0 // every key here is above tk
	}
	if pi < 0 {
		return tuple.Fact{}, false, at, nil
	}
	pg, at, err := s.p.openPage(at, pages[pi].Ref)
	if err != nil {
		return tuple.Fact{}, false, at, err
	}
	s.pageIdx, s.pg, s.pos, s.eof = pi, pg, pg.FirstGE(tk), false
	ri, n := s.pos, pg.RowCount()
	if d == ceil && ri == n {
		if at, err = s.settle(at); err != nil || s.eof {
			return tuple.Fact{}, false, at, err
		}
		pg, ri, n = s.pg, s.pos, s.pg.RowCount()
	}
	keys := pg.Keys()
	switch {
	case d == exact:
		for ; ri < n && tuple.CompareKeys(keys[ri*k:], tk, k) == 0; ri++ {
			if f := pg.Row(ri, cols); !s.p.elided(f) {
				return f, true, at, nil
			}
		}
		return tuple.Fact{}, false, at, nil
	case d == floor && (ri == n || tuple.CompareKeys(keys[ri*k:], tk, k) != 0):
		// The floor is the row before: back to the start of its run.
		if ri == 0 {
			return tuple.Fact{}, false, at, nil
		}
		for ri--; ri > 0 && tuple.CompareKeys(keys[(ri-1)*k:], keys[ri*k:], k) == 0; ri-- {
		}
	}
	return pg.Row(ri, cols), true, at, nil
}

func (s *patchSource) peek() (tuple.Fact, bool) {
	if s.eof {
		return tuple.Fact{}, false
	}
	if s.hi == nil {
		if s.rows == nil {
			s.rows = s.pg.All()
		}
		return s.rows[s.pos], true
	}
	if !s.have {
		s.cur, s.have = s.pg.Row(s.pos, s.cols), true
	}
	return s.cur, true
}

func (s *patchSource) advance(at sim.Time) (sim.Time, error) {
	s.pos++
	return s.settle(at)
}

// Scan streams the newest non-elided version of every key in [loKey,
// hiKey] (inclusive; nil bounds are open) in key order. fn returning false
// stops the scan early. Each fact fn receives is its own.
func (p *Pyramid) Scan(at sim.Time, loKey, hiKey []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.scan(at, loKey, hiKey, false, fn)
}

// ScanVersions streams every non-elided fact version in the key range,
// newest first within each key, each fact its own. Callers that judge the
// versions and keep none of them — the address lookup, GC's census,
// recovery — use Visit instead.
func (p *Pyramid) ScanVersions(at sim.Time, loKey, hiKey []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.scan(at, loKey, hiKey, true, fn)
}

// scan is Visit handing fn a Clone of every fact.
func (p *Pyramid) scan(at sim.Time, loKey, hiKey []uint64, allVersions bool, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.Visit(at, loKey, hiKey, allVersions, func(f tuple.Fact) bool { return fn(f.Clone()) })
}

// visitScratch is one Visit's working set: the memtable window's headers,
// the patch streams, their row buffers, the window's upper bound and the
// last key seen. A row handed to fn, an unknown function, escapes as far as
// the compiler can tell, so stack arrays cannot hold it; pooling the set is
// what lets a warm Visit allocate nothing.
type visitScratch struct {
	mem     []tuple.Fact
	streams []patchSource
	cols    []uint64 // len(streams) row buffers of Schema.Cols each
	hi      []uint64 // a copy of hiKey, which the streams hold
	lastKey []uint64
}

var visitScratchPool = sync.Pool{New: func() any { return new(visitScratch) }}

// release drops what the scratch points at (memtable facts, pages) and
// returns it to the pool.
func (sc *visitScratch) release() {
	clear(sc.mem)
	clear(sc.streams)
	sc.mem, sc.streams, sc.lastKey = sc.mem[:0], sc.streams[:0], sc.lastKey[:0]
	sc.hi = sc.hi[:0]
	visitScratchPool.Put(sc)
}

// Visit streams the facts in [loKey, hiKey] (inclusive; nil bounds are
// open) in key order: with allVersions false the newest non-elided version
// of each key, as Scan does, and otherwise every non-elided version, newest
// first within each key, as ScanVersions does. fn returning false stops it.
//
// Visit lends each fact to fn rather than giving it: the fact's Cols may be
// a buffer the next row is decoded into, and its Blob lies inside a cached
// page, so the fact is valid only until fn returns, and fn keeps a Clone of
// anything it retains. Nobody writes through it. Every lookup on the read
// path and every census that decodes a row and drops the fact goes through
// here; a warm Visit allocates nothing.
//
// It merges the memtable and every patch. With both bounds set it costs
// the memtable rows and patch rows inside the window, O(log rows) to find
// them, and one cache touch per patch page at or below the window's start
// (see patchSource.seek).
func (p *Pyramid) Visit(at sim.Time, loKey, hiKey []uint64, allVersions bool, fn func(tuple.Fact) bool) (sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	sc := visitScratchPool.Get().(*visitScratch)
	defer sc.release()

	// Each run's window is copied under mu in read mode (a later Insert
	// reorders the memtable's headers in place; the facts they name are
	// never written), and the copy is sorted when two runs or more fed it.
	p.mu.RLock()
	fed := 0
	for r := range p.runEnds {
		run := p.run(r)
		lo, hi := 0, len(run)
		if loKey != nil {
			lo = firstGE(run, loKey, k)
		}
		if hiKey != nil {
			hi = lo + sort.Search(hi-lo, func(i int) bool { return tuple.CompareKeys(run[lo+i].Cols, hiKey, k) > 0 })
		}
		if lo < hi {
			sc.mem = append(sc.mem, run[lo:hi]...)
			fed++
		}
	}
	// The patch list is copy-on-write: the header is the snapshot.
	patches := p.patches
	p.mu.RUnlock()
	if fed > 1 {
		slices.SortStableFunc(sc.mem, factOrder(k))
	}
	mem := sc.mem // the window's facts not yet taken

	// Bounded streams stop at a copy of hiKey and decode rows one at a
	// time, each into its own buffer; unbounded ones decode whole pages.
	var bound []uint64
	n := p.cfg.Schema.Cols
	if hiKey != nil {
		sc.hi = append(sc.hi, hiKey...)
		bound = sc.hi
		sc.cols = slices.Grow(sc.cols[:0], len(patches)*n)[:len(patches)*n]
	}
	// Page 0 of every patch first, newest patch first; then each patch is
	// taken forward to loKey in turn.
	for i, patch := range patches {
		var cols []uint64
		if bound != nil {
			cols = sc.cols[i*n : (i+1)*n : (i+1)*n]
		}
		sc.streams = append(sc.streams, newPatchSource(p, patch, bound, cols))
		var err error
		if done, err = sc.streams[i].settle(done); err != nil {
			return done, err
		}
	}
	streams := sc.streams
	if loKey != nil {
		for i := range streams {
			var err error
			if done, err = streams[i].seek(done, loKey); err != nil {
				return done, err
			}
		}
	}

	lastEmitted := false
	for {
		// Choose the least (key asc, seq desc) fact: the memtable's, then
		// each patch's, newest first; a tie keeps the earlier source.
		bestFact, ok := tuple.Fact{}, len(mem) > 0
		if ok {
			bestFact = mem[0]
		}
		best := -1 // the memtable
		for i := range streams {
			f, more := streams[i].peek()
			if more && (!ok || tuple.Less(f, bestFact, k)) {
				best, bestFact, ok = i, f, true
			}
		}
		if !ok {
			return done, nil
		}
		// advance only moves the stream: a bounded stream decodes its next
		// row on the next peek, so bestFact's buffer holds until then.
		if best < 0 {
			mem = mem[1:]
		} else {
			var err error
			if done, err = streams[best].advance(done); err != nil {
				return done, err
			}
		}

		if len(sc.lastKey) == 0 || tuple.CompareKeys(bestFact.Cols, sc.lastKey, k) != 0 {
			sc.lastKey = append(sc.lastKey[:0], bestFact.Cols[:k]...)
			lastEmitted = false
		}
		if !allVersions && lastEmitted {
			continue // newest version of this key already delivered
		}
		if p.elided(bestFact) {
			continue
		}
		lastEmitted = true
		if !fn(bestFact) {
			return done, nil
		}
	}
}
