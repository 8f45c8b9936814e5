package pyramid

import (
	"sort"

	"purity/internal/pagecodec"
	"purity/internal/sim"
	"purity/internal/tuple"
)

func seqOf(v uint64) tuple.Seq { return tuple.Seq(v) }

// memSuffixMax bounds how many unsorted memtable facts Get will scan
// linearly before forcing a (incremental) re-sort. Point lookups — the
// dedup index is probed once per 512 B block of every write — would
// otherwise pay a full memtable merge after every insert batch.
const memSuffixMax = 64

// Get returns the newest non-elided fact with exactly this key. Patches
// hold disjoint, ordered sequence ranges, so the first source (memtable,
// then patches newest-first) containing the key holds its newest version.
func (p *Pyramid) Get(at sim.Time, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	// A reader's view is the memtable rows it needs, copied out under the
	// lock (a later sort reuses the memtable's buffers), plus the patch
	// list's header: the list is copy-on-write (installPatchLocked builds a
	// fresh slice), so the header is the snapshot.
	p.mu.Lock()
	if len(p.mem)-p.sortedLen > memSuffixMax {
		p.sortMemLocked()
	}
	versions := p.memVersionsLocked(key)
	patches := p.patches
	p.mu.Unlock()

	for _, f := range versions {
		if !p.elided(f) {
			return f.Clone(), true, done, nil
		}
	}

	if k == 1 {
		key0 := key[0]
		for _, patch := range patches {
			f, found, d, err := p.getFromPatch1(done, patch, key0)
			done = d
			if err != nil {
				return tuple.Fact{}, false, done, err
			}
			if found {
				return f, true, done, nil
			}
		}
		return tuple.Fact{}, false, done, nil
	}
	for _, patch := range patches {
		f, found, d, err := p.getFromPatch(done, patch, key)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		if found {
			return f, true, done, nil
		}
	}
	return tuple.Fact{}, false, done, nil
}

// memVersionsLocked returns the memtable's versions of key, newest first.
// The sorted prefix is binary-searched; facts inserted since the last sort
// (a bounded suffix) are scanned linearly. The result is in (seq desc,
// insertion asc) order — exactly the order a full stable sort would
// produce: prefix facts were inserted before suffix facts and come first,
// and the sort below is stable. Caller holds mu.
func (p *Pyramid) memVersionsLocked(key []uint64) []tuple.Fact {
	k := p.cfg.Schema.KeyCols
	prefix, suffix := p.mem[:p.sortedLen], p.mem[p.sortedLen:]
	var out []tuple.Fact
	if k == 1 {
		// Single-column keys (the dedup index) take a hand-rolled search:
		// no closure, no generic key compare.
		key0 := key[0]
		lo, hi := 0, len(prefix)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid].Cols[0] < key0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for ; lo < len(prefix) && prefix[lo].Cols[0] == key0; lo++ {
			out = append(out, prefix[lo])
		}
		for _, f := range suffix {
			if f.Cols[0] == key0 {
				out = append(out, f)
			}
		}
	} else {
		i := sort.Search(len(prefix), func(i int) bool {
			return tuple.CompareKeys(prefix[i].Cols, key, k) >= 0
		})
		for ; i < len(prefix) && tuple.CompareKeys(prefix[i].Cols, key, k) == 0; i++ {
			out = append(out, prefix[i])
		}
		for _, f := range suffix {
			if tuple.CompareKeys(f.Cols, key, k) == 0 {
				out = append(out, f)
			}
		}
	}
	if len(out) > 1 {
		sort.SliceStable(out, func(a, b int) bool { return out[a].Seq > out[b].Seq })
	}
	return out
}

// getFromPatch1 is getFromPatch specialized for single-column keys — the
// dedup index's shape, probed once per 512 B block of every write. Same
// result, same page-open sequence (so identical simulated time), but
// straight uint64 compares against the page's decoded key cache.
func (p *Pyramid) getFromPatch1(at sim.Time, patch *Patch, key0 uint64) (tuple.Fact, bool, sim.Time, error) {
	done := at
	pages := patch.Pages
	lo, hi := 0, len(pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pages[mid].KeyMin[0] <= key0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for pi := lo - 1; pi >= 0 && pi < len(pages); pi++ {
		if pages[pi].KeyMin[0] > key0 {
			break
		}
		pg, d, err := p.openPage(done, pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		keys := pg.Keys()
		rlo, rhi := 0, len(keys)
		for rlo < rhi {
			mid := int(uint(rlo+rhi) >> 1)
			if keys[mid] < key0 {
				rlo = mid + 1
			} else {
				rhi = mid
			}
		}
		for ; rlo < len(keys); rlo++ {
			if keys[rlo] != key0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Fact(rlo)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
		// Key versions may continue on the next page.
	}
	return tuple.Fact{}, false, done, nil
}

// getFromPatch searches one patch for the newest non-elided version of key.
func (p *Pyramid) getFromPatch(at sim.Time, patch *Patch, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at
	// Last page whose KeyMin ≤ key; versions of a key may spill into
	// following pages whose KeyMin equals the key.
	pi := sort.Search(len(patch.Pages), func(i int) bool {
		return tuple.CompareKeys(patch.Pages[i].KeyMin, key, k) > 0
	}) - 1
	if pi < 0 {
		return tuple.Fact{}, false, done, nil
	}
	for ; pi < len(patch.Pages); pi++ {
		if tuple.CompareKeys(patch.Pages[pi].KeyMin, key, k) > 0 {
			break
		}
		pg, d, err := p.openPage(done, patch.Pages[pi].Ref)
		done = d
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		var buf []uint64
		for ri := pg.FirstGE(key); ri < pg.RowCount(); ri++ {
			buf = pg.Key(buf[:0], ri)
			if tuple.CompareKeys(buf, key, k) != 0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Fact(ri)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
		// Key versions may continue on the next page.
	}
	return tuple.Fact{}, false, done, nil
}

// --- Merged scans -------------------------------------------------------

// factSource is a sorted stream of facts (key asc, seq desc).
type factSource interface {
	// peek returns the current fact without consuming it.
	peek() (tuple.Fact, bool)
	// advance consumes the current fact; it may read pages (returns the
	// updated completion time).
	advance(at sim.Time) (sim.Time, error)
}

type memSource struct {
	facts []tuple.Fact
	pos   int
}

func (s *memSource) peek() (tuple.Fact, bool) {
	if s.pos >= len(s.facts) {
		return tuple.Fact{}, false
	}
	return s.facts[s.pos], true
}

func (s *memSource) advance(at sim.Time) (sim.Time, error) {
	s.pos++
	return at, nil
}

// patchSource streams one patch. It opens pages through the cache, in order,
// as the stream reaches them: the page-open sequence is all the device model
// sees of a scan (DESIGN.md "Read path"), so a seek changes what is decoded,
// never what is opened. A stream bounded by hi decodes one row at a time and
// ends at the first key above hi; an unbounded one (hi nil: recovery, census
// and listing scans, merges) will read every row and decodes pages whole.
type patchSource struct {
	p     *Pyramid
	patch *Patch
	hi    []uint64 // inclusive upper bound; nil is open

	pageIdx int // page of pg; -1 before the first open
	pg      *pagecodec.Page
	pos     int          // current row of pg
	rows    []tuple.Fact // unbounded: pg decoded whole, on first peek
	cur     tuple.Fact   // bounded: row pos decoded, on first peek
	have    bool
	eof     bool
}

func newPatchSource(p *Pyramid, patch *Patch, hi []uint64) patchSource {
	return patchSource{p: p, patch: patch, hi: hi, pageIdx: -1}
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
		s.cur, s.have = s.pg.Fact(s.pos), true
	}
	return s.cur, true
}

func (s *patchSource) advance(at sim.Time) (sim.Time, error) {
	s.pos++
	return s.settle(at)
}

// Scan streams the newest non-elided version of every key in [loKey,
// hiKey] (inclusive; nil bounds are open) in key order. fn returning false
// stops the scan early.
func (p *Pyramid) Scan(at sim.Time, loKey, hiKey []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.scan(at, loKey, hiKey, false, fn)
}

// ScanVersions streams every non-elided fact version in the key range,
// newest first within each key. It is for callers that must judge the
// versions themselves: every read resolves a sector through it, because an
// address-map entry is shadowed by extent overlap and segment validity
// rather than by key alone, and so do GC's liveness census and recovery's
// rebuild of derived state.
func (p *Pyramid) ScanVersions(at sim.Time, loKey, hiKey []uint64, fn func(tuple.Fact) bool) (sim.Time, error) {
	return p.scan(at, loKey, hiKey, true, fn)
}

// scan merges the memtable and every patch over [loKey, hiKey]. With both
// bounds set it costs the memtable rows and patch rows inside the window,
// O(log rows) to find them, and one cache touch per patch page at or below
// the window's start (see patchSource.seek).
func (p *Pyramid) scan(at sim.Time, loKey, hiKey []uint64, allVersions bool, fn func(tuple.Fact) bool) (sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	p.mu.Lock()
	p.sortMemLocked()
	lo, hi := 0, len(p.mem)
	if loKey != nil {
		lo = sort.Search(hi, func(i int) bool { return tuple.CompareKeys(p.mem[i].Cols, loKey, k) >= 0 })
	}
	if hiKey != nil {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return tuple.CompareKeys(p.mem[lo+i].Cols, hiKey, k) > 0 })
	}
	// A later sort reuses the memtable's buffers, so the window is copied.
	mem := memSource{facts: append([]tuple.Fact(nil), p.mem[lo:hi]...)}
	// The patch list is copy-on-write: the header is the snapshot.
	patches := p.patches
	p.mu.Unlock()

	// Page 0 of every patch first, newest patch first; then each patch is
	// taken forward to loKey in turn.
	streams := make([]patchSource, len(patches))
	sources := make([]factSource, 0, len(patches)+1)
	sources = append(sources, &mem)
	for i, patch := range patches {
		streams[i] = newPatchSource(p, patch, hiKey)
		var err error
		if done, err = streams[i].settle(done); err != nil {
			return done, err
		}
		sources = append(sources, &streams[i])
	}
	if loKey != nil {
		for i := range streams {
			var err error
			if done, err = streams[i].seek(done, loKey); err != nil {
				return done, err
			}
		}
	}

	var lastKey []uint64
	lastEmitted := false
	for {
		// Choose the least (key asc, seq desc) fact across sources.
		best := -1
		var bestFact tuple.Fact
		for i, s := range sources {
			f, ok := s.peek()
			if !ok {
				continue
			}
			if best < 0 || tuple.Less(f, bestFact, k) {
				best = i
				bestFact = f
			}
		}
		if best < 0 {
			return done, nil
		}
		var err error
		done, err = sources[best].advance(done)
		if err != nil {
			return done, err
		}

		newKey := lastKey == nil || tuple.CompareKeys(bestFact.Cols, lastKey, k) != 0
		if newKey {
			lastKey = append(lastKey[:0], bestFact.Cols[:k]...)
			lastEmitted = false
		}
		if !allVersions && lastEmitted {
			continue // newest version of this key already delivered
		}
		if p.elided(bestFact) {
			continue
		}
		lastEmitted = true
		if !fn(bestFact.Clone()) {
			return done, nil
		}
	}
}
