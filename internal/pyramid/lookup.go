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

// memSuffixMax bounds how many unsorted memtable facts Get will scan
// linearly before forcing a (incremental) re-sort. Point lookups — the
// dedup index is probed once per 512 B block of every write — would
// otherwise pay a full memtable merge after every insert batch.
const memSuffixMax = 64

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

// Get returns the newest non-elided fact with exactly this key. Patches
// hold disjoint, ordered sequence ranges, so the first source (memtable,
// then patches newest-first) containing the key holds its newest version.
// A patch whose key filter rules the key out is skipped without a page
// open. Each patch's candidate is decoded into one scratch row; the result
// is the winner's Clone.
func (p *Pyramid) Get(at sim.Time, key []uint64) (tuple.Fact, bool, sim.Time, error) {
	k := p.cfg.Schema.KeyCols
	done := at

	// A reader's view is the memtable rows it needs, copied out under the
	// lock (a later sort reuses the memtable's buffers) into a stack array
	// of four (more spill to the heap), plus the patch list's header: the
	// list is copy-on-write (installPatchLocked builds a fresh slice), so
	// the header is the snapshot.
	var versionBuf [4]tuple.Fact
	p.mu.Lock()
	if len(p.mem)-p.sortedLen > memSuffixMax {
		p.sortMemLocked()
	}
	versions := p.memVersionsLocked(versionBuf[:0], key)
	patches := p.patches
	p.mu.Unlock()

	for _, f := range versions {
		if !p.elided(f) {
			return f.Clone(), true, done, nil
		}
	}

	var colBuf [stackCols]uint64
	cols := rowBuf(colBuf[:], p.cfg.Schema.Cols)
	h := keyHash(key, k)
	for _, patch := range patches {
		if !patch.filter.mayContain(h) {
			continue
		}
		var f tuple.Fact
		var found bool
		var err error
		if k == 1 {
			f, found, done, err = p.getFromPatch1(done, patch, key[0], cols)
		} else {
			f, found, done, err = p.getFromPatch(done, patch, key, cols)
		}
		if err != nil {
			return tuple.Fact{}, false, done, err
		}
		if found {
			return f.Clone(), true, done, nil
		}
	}
	return tuple.Fact{}, false, done, nil
}

// memVersionsLocked appends the memtable's versions of key to dst, newest
// first. The sorted prefix is binary-searched; facts inserted since the
// last sort (a bounded suffix) are scanned linearly. The result is in (seq
// desc, insertion asc) order — exactly the order a full stable sort would
// produce: prefix facts were inserted before suffix facts and come first,
// and the sort below is stable. Caller holds mu.
func (p *Pyramid) memVersionsLocked(dst []tuple.Fact, key []uint64) []tuple.Fact {
	k := p.cfg.Schema.KeyCols
	prefix, suffix := p.mem[:p.sortedLen], p.mem[p.sortedLen:]
	out := dst
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
		slices.SortStableFunc(out, func(a, b tuple.Fact) int { return cmp.Compare(b.Seq, a.Seq) })
	}
	return out
}

// getFromPatch1 is getFromPatch specialized for single-column keys — the
// dedup index's shape, probed once per 512 B block of every write. Same
// result, same page-open sequence (so identical simulated time), but
// straight uint64 compares against the page's decoded key cache.
func (p *Pyramid) getFromPatch1(at sim.Time, patch *Patch, key0 uint64, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
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
			f := pg.Row(rlo, cols)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
		// Key versions may continue on the next page.
	}
	return tuple.Fact{}, false, done, nil
}

// getFromPatch searches one patch for the newest non-elided version of key,
// decoding candidates into cols; the fact it returns is borrowed from cols
// and the page.
func (p *Pyramid) getFromPatch(at sim.Time, patch *Patch, key []uint64, cols []uint64) (tuple.Fact, bool, sim.Time, error) {
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
		keys := pg.Keys()
		for ri := pg.FirstGE(key); ri < pg.RowCount(); ri++ {
			if tuple.CompareKeys(keys[ri*k:], key, k) != 0 {
				return tuple.Fact{}, false, done, nil
			}
			f := pg.Row(ri, cols)
			if !p.elided(f) {
				return f, true, done, nil
			}
		}
		// Key versions may continue on the next page.
	}
	return tuple.Fact{}, false, done, nil
}

// --- Merged scans -------------------------------------------------------

// factSource is what both sorted streams (key asc, seq desc) offer. Visit
// and mergePatches call memSource and patchSource directly: an interface
// value holding a pointer to Visit's local memSource would move it to the
// heap. The reference scan in the tests merges through it.
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
// never what is opened. A stream bounded by hi decodes one row at a time,
// into its cols buffer, and ends at the first key above hi; an unbounded one
// (hi nil: recovery, census and listing scans, merges) will read every row
// and decodes pages whole.
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

	p.mu.Lock()
	p.sortMemLocked()
	lo, hi := 0, len(p.mem)
	if loKey != nil {
		lo = sort.Search(hi, func(i int) bool { return tuple.CompareKeys(p.mem[i].Cols, loKey, k) >= 0 })
	}
	if hiKey != nil {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return tuple.CompareKeys(p.mem[lo+i].Cols, hiKey, k) > 0 })
	}
	// A later sort reorders the memtable's headers in place, so the
	// window's are copied; the facts they name are never written.
	sc.mem = append(sc.mem, p.mem[lo:hi]...)
	// The patch list is copy-on-write: the header is the snapshot.
	patches := p.patches
	p.mu.Unlock()
	mem := memSource{facts: sc.mem}

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
		bestFact, ok := mem.peek()
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
			mem.pos++
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
