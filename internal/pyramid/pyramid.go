package pyramid

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"purity/internal/crashpoint"
	"purity/internal/elide"
	"purity/internal/lockrank"
	"purity/internal/pagecodec"
	"purity/internal/sim"
	"purity/internal/tuple"
)

// Config describes one pyramid.
type Config struct {
	ID         uint32 // relation id, stamped into patch descriptors
	Name       string
	Schema     tuple.Schema
	PageRows   int // facts per encoded page (default 256)
	CachePages int // page cache capacity, in pages (default 512)

	// Shadowed decides, during merges, whether an older version of a key
	// can be dropped given the newer versions of the same key already kept
	// (newest first). Nil means any newer version shadows — plain
	// newest-wins. The address map overrides this: a shorter overwrite at
	// the same starting sector leaves the older entry's tail visible, so
	// the older fact must survive until fully covered.
	Shadowed func(older tuple.Fact, keptNewer []tuple.Fact) bool

	// Crash, when set, is the fault-point registry for crash-consistency
	// sweeps; persist and merge steps call it between durable sub-steps.
	Crash *crashpoint.Registry
}

func (c Config) withDefaults() Config {
	if c.PageRows == 0 {
		c.PageRows = 256
	}
	if c.CachePages == 0 {
		c.CachePages = 512
	}
	return c
}

// PageMeta describes one page of a patch.
type PageMeta struct {
	Ref    Ref
	KeyMin []uint64 // key of the first row
	Rows   int
}

// Patch is a persisted sorted run covering a contiguous sequence-number
// range. Patches are immutable once created (merge replaces, never edits).
type Patch struct {
	SeqLo, SeqHi tuple.Seq
	Pages        []PageMeta // in ascending key order
	Rows         int

	// filter rules keys out for Get. It is built with the patch and never
	// persisted: a patch decoded from its descriptor admits every key.
	filter keyFilter
}

// unfiltered reports whether the patch holds rows but no key filter: it was
// decoded from its descriptor, and every Get probes its pages.
func (pt *Patch) unfiltered() bool { return pt.filter == nil && pt.Rows > 0 }

// Pyramid is one LSM index. Its levels are the memtable and the patches,
// newest first. The memtable is a stack of sorted runs laid end to end in
// mem, oldest first; only the mutators reorder it. Every level has a key
// filter (filter.go), and an exact lookup asks it first, with one hash of
// its key: a level the filter rules out is not searched. The point lookups
// read the levels in one way: memRunLocked (or, for a batch of keys,
// GetBatch) binary-searches each run, then patchSource.find searches each
// patch — Get, GetRow and Batch.Get through one exact patch walk
// (getFromPatches), GetFloor and GetCeil through one directed search;
// Visit, which Scan and ScanVersions wrap, and merges step the same patch
// cursor forward. The
// readers (the lookups and the scans) are safe to run concurrently with
// each other and with a mutator. A reader holds mu in read mode only, to
// copy out the memtable rows it needs and the patch list's header; the list
// is copy-on-write and every patch, its key filter included, is immutable
// once installed, so the pages are read without the lock and a merge never
// blocks a reader (§4.8: "everything below the top level... lock-free").
// Mutators (Insert, Flush, MergeStep, AddPatch) must not overlap one
// another: Flush rebuilds the memtable from what it saw before writing its
// patch. The engine runs them under Array.mu.
type Pyramid struct {
	cfg   Config
	store PageStore
	elide *elide.Table // optional; nil means no elision for this relation

	mu lockrank.RWMutex[lockrank.PyramidPyramidMu]
	// mem is the recent facts (durable in NVRAM) as sorted runs, oldest
	// first: run i is mem[runEnds[i-1]:runEnds[i]] (run 0 starts at 0).
	// Each run is in (key asc, seq desc, insertion asc) order and more than
	// twice the size of the next.
	mem        []tuple.Fact
	runEnds    []int
	memScratch []tuple.Fact // reused copy of the newer run in a merge
	// memFilter holds the key of every fact in mem, and is sized for
	// memFilterFacts facts: Insert adds each new fact's key, a memtable
	// that outgrows it gets one of double the size, and setMemLocked
	// rebuilds it, at the same size, over what a flush retained. Carry
	// merges move facts, not keys, so they leave it alone. Nil (before the
	// first Insert) admits every key.
	memFilter      keyFilter
	memFilterFacts int
	patches        []*Patch // sorted by SeqHi descending (newest first)
	flushedThrough tuple.Seq

	cache *pageCache

	// flushRows counts the rows Flush has handed to writePatch, and
	// mergeRows the input rows merges have read (RowCounts).
	flushRows, mergeRows atomic.Int64
}

// New creates an empty pyramid.
func New(cfg Config, store PageStore, et *elide.Table) (*Pyramid, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, errors.New("pyramid: nil store")
	}
	return &Pyramid{
		cfg:   cfg,
		store: store,
		elide: et,
		cache: newPageCache(cfg.CachePages),
	}, nil
}

// SchemaError reports a fact whose column count disagrees with the relation
// schema. This is an error rather than a panic because it is reachable from
// replay of a corrupt or torn log record: recovery must be able to reject
// the record instead of crashing the controller.
type SchemaError struct {
	Relation  string
	Got, Want int
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("pyramid %s: fact with %d cols, schema wants %d", e.Relation, e.Got, e.Want)
}

// Insert adds facts to the memtable. The engine must have already persisted
// them to NVRAM — the pyramid only checks monotonic flushing, not commit.
// Re-inserting facts already flushed (recovery replay) is harmless: lookups
// take the newest version and merges drop exact duplicates.
//
// The batch, stably sorted, becomes the newest run, and then the newest run
// is merged into the one before it while that one is at most twice its size:
// a binary counter's carry (Bentley and Saxe's logarithmic method), so a
// memtable of n facts holds at most ⌊log₂ n⌋ + 1 runs and each fact moves
// O(log n) times. Every fact is validated against the schema before any is
// appended, so a SchemaError leaves the memtable untouched; each appended
// fact's key goes into the memtable's filter.
func (p *Pyramid) Insert(facts []tuple.Fact) error {
	if len(facts) == 0 {
		return nil
	}
	for _, f := range facts {
		if len(f.Cols) != p.cfg.Schema.Cols {
			return &SchemaError{Relation: p.cfg.Name, Got: len(f.Cols), Want: p.cfg.Schema.Cols}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	start := len(p.mem)
	p.mem = append(p.mem, facts...)
	p.addMemKeysLocked(start)
	slices.SortStableFunc(p.mem[start:], factOrder(p.cfg.Schema.KeyCols))
	p.runEnds = append(p.runEnds, len(p.mem))
	for n := len(p.runEnds); n > 1 && len(p.run(n-2)) <= 2*len(p.run(n-1)); n-- {
		p.mergeNewestRunsLocked()
	}
	return nil
}

// mergeNewestRunsLocked merges the newest run into the one before it, in
// place: the newer run is copied out and the pair is filled from its end, so
// the older run's facts below the newer run's least never move. On a tie the
// older run's fact goes first, which keeps every run in insertion order
// within a (key, seq). Caller holds mu exclusively.
func (p *Pyramid) mergeNewestRunsLocked() {
	n := len(p.runEnds)
	lo := 0
	if n > 2 {
		lo = p.runEnds[n-3]
	}
	mid, hi := p.runEnds[n-2], p.runEnds[n-1]
	p.runEnds = append(p.runEnds[:n-2], hi)
	k := p.cfg.Schema.KeyCols
	if !factBefore(&p.mem[mid], &p.mem[mid-1], k) {
		return // the pair is in order already
	}
	newer := append(p.memScratch[:0], p.mem[mid:hi]...)
	p.memScratch = newer
	mem := p.mem[lo:hi]
	i, w := mid-lo-1, hi-lo-1
	for j := len(newer) - 1; j >= 0; j-- {
		f := &newer[j]
		for ; i >= 0 && factBefore(f, &mem[i], k); i-- {
			mem[w] = mem[i]
			w--
		}
		mem[w] = *f
		w--
	}
}

// factBefore is tuple.Less on pointers, which spares the merge copying two
// facts per comparison.
func factBefore(a, b *tuple.Fact, k int) bool {
	c := tuple.CompareKeys(a.Cols, b.Cols, k)
	return c < 0 || c == 0 && a.Seq > b.Seq
}

// setMemLocked makes facts, which are sorted, the memtable's one run, and
// rebuilds the memtable's filter over them. The filter keeps its size: the
// memtable refills to about what it held before a flush, and a smaller
// filter would be outgrown and rebuilt on the way. Caller holds mu
// exclusively.
func (p *Pyramid) setMemLocked(facts []tuple.Fact) {
	p.mem, p.runEnds = facts, p.runEnds[:0]
	if len(facts) > 0 {
		p.runEnds = append(p.runEnds, len(facts))
	}
	p.clearMemFilterLocked(max(p.memFilterFacts, memFilterMinFacts))
	p.addMemKeysLocked(0)
}

// memFilterMinFacts is the fewest facts the memtable's filter is sized for.
const memFilterMinFacts = 1024

// addMemKeysLocked adds the keys of mem[start:] to the memtable's filter.
// A memtable that has outgrown its filter gets one for twice the facts,
// filled with every key, so each fact is hashed O(1) times amortised.
// Caller holds mu exclusively.
func (p *Pyramid) addMemKeysLocked(start int) {
	if len(p.mem) > p.memFilterFacts {
		p.clearMemFilterLocked(max(2*p.memFilterFacts, len(p.mem), memFilterMinFacts))
		start = 0
	}
	k := p.cfg.Schema.KeyCols
	for i := start; i < len(p.mem); i++ {
		p.memFilter.add(keyHash(p.mem[i].Cols, k))
	}
}

// clearMemFilterLocked makes the memtable's filter an empty one for facts
// facts, in its old storage where that is large enough. Caller holds mu
// exclusively.
func (p *Pyramid) clearMemFilterLocked(facts int) {
	if n := filterWords(facts); cap(p.memFilter) >= n {
		p.memFilter = p.memFilter[:n]
		clear(p.memFilter)
	} else {
		p.memFilter = make(keyFilter, n)
	}
	p.memFilterFacts = facts
}

// MemRows returns the number of facts in the memtable.
func (p *Pyramid) MemRows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.mem)
}

// RowCounts returns the rows flushes have written and the rows merges have
// read since New. Their ratio is how many times, on average, merges copy a
// fact after its flush. Reading them touches no clock.
func (p *Pyramid) RowCounts() (flushed, merged int64) {
	return p.flushRows.Load(), p.mergeRows.Load()
}

// FlushedThrough returns the highest sequence number persisted to segments.
func (p *Pyramid) FlushedThrough() tuple.Seq {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.flushedThrough
}

// Patches returns a snapshot of the patch list, newest first (for
// checkpointing and tests).
func (p *Pyramid) Patches() []*Patch {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]*Patch(nil), p.patches...)
}

// VerifyPages reads and decodes every page of every installed patch,
// returning the first failure. The engine's consistency check runs it: any
// page an installed patch references must be present, checksummed, and
// decodable.
func (p *Pyramid) VerifyPages(at sim.Time) (sim.Time, error) {
	p.mu.RLock()
	patches := p.patches // copy-on-write: the header is the snapshot
	p.mu.RUnlock()
	done := at
	for _, patch := range patches {
		for _, pm := range patch.Pages {
			_, d, err := p.openPage(done, pm.Ref)
			done = d
			if err != nil {
				return done, fmt.Errorf("patch [%d,%d]: %w", patch.SeqLo, patch.SeqHi, err)
			}
		}
	}
	return done, nil
}

// VerifyCachedPages re-checks the checksum of every page in the page cache.
// Visit lends rows whose blobs alias cached page bytes, so a write through
// a borrowed fact would corrupt a page every later reader trusts; the
// engine's consistency check runs this to catch one.
func (p *Pyramid) VerifyCachedPages() error {
	if err := p.cache.verify(); err != nil {
		return fmt.Errorf("pyramid %s: %w", p.cfg.Name, err)
	}
	return nil
}

// factOrder is tuple.Less as a comparison for the slices sorts.
func factOrder(keyCols int) func(a, b tuple.Fact) int {
	return func(a, b tuple.Fact) int {
		if c := tuple.CompareKeys(a.Cols, b.Cols, keyCols); c != 0 {
			return c
		}
		return cmp.Compare(b.Seq, a.Seq)
	}
}

// Flush writes every memtable fact with Seq ≤ persistedThrough into a new
// patch and installs it. Facts newer than persistedThrough stay in the
// memtable — this is the Figure 4 write-ahead invariant: an index never
// reaches a segment before its sequence numbers are durable in NVRAM.
// Flushing with nothing eligible is a no-op.
func (p *Pyramid) Flush(at sim.Time, persistedThrough tuple.Seq) (sim.Time, error) {
	p.mu.Lock()
	// One run, partitioned: eligible and retained both come out sorted.
	for len(p.runEnds) > 1 {
		p.mergeNewestRunsLocked()
	}
	var eligible, retained []tuple.Fact
	for _, f := range p.mem {
		if f.Seq <= persistedThrough {
			eligible = append(eligible, f)
		} else {
			retained = append(retained, f)
		}
	}
	if len(eligible) == 0 {
		p.mu.Unlock()
		return at, nil
	}
	seqLo := p.flushedThrough + 1
	seqHi := p.flushedThrough
	for _, f := range eligible {
		if f.Seq > seqHi {
			seqHi = f.Seq
		}
	}
	if seqHi < seqLo {
		// Every eligible fact is a replay of something already flushed;
		// dropping them from the memtable is the whole job.
		p.setMemLocked(retained)
		p.mu.Unlock()
		return at, nil
	}
	p.mu.Unlock()

	patch, done, err := p.writePatch(at, eligible, seqLo, seqHi)
	if err != nil {
		return done, err
	}
	p.flushRows.Add(int64(len(eligible)))

	p.mu.Lock()
	p.setMemLocked(retained)
	p.installPatchLocked(patch)
	if seqHi > p.flushedThrough {
		p.flushedThrough = seqHi
	}
	p.mu.Unlock()
	return done, nil
}

// writePatch encodes sorted facts into pages, writes them to the store and
// logs the patch descriptor.
func (p *Pyramid) writePatch(at sim.Time, sorted []tuple.Fact, seqLo, seqHi tuple.Seq) (*Patch, sim.Time, error) {
	patch := &Patch{SeqLo: seqLo, SeqHi: seqHi, Rows: len(sorted)}
	done := at
	k := p.cfg.Schema.KeyCols
	for base := 0; base < len(sorted); {
		end := base + p.cfg.PageRows
		if end > len(sorted) {
			end = len(sorted)
		}
		// Never split the versions of one key across pages: the whole run
		// of any key, newest version first, is then in a single page, so
		// the point search (patchSource.find) opens one page per patch,
		// and a ceiling at most two.
		for end < len(sorted) && tuple.CompareKeys(sorted[end].Cols, sorted[end-1].Cols, k) == 0 {
			end++
		}
		chunk := sorted[base:end]
		raw, err := pagecodec.Encode(p.cfg.Schema, chunk)
		if err != nil {
			return nil, done, err
		}
		ref, d, err := p.store.WritePage(done, raw)
		if err != nil {
			return nil, done, err
		}
		done = d
		// A crash here orphans the pages written so far: no descriptor
		// references them, so recovery never sees this patch and the facts
		// stay recoverable from NVRAM or older patches.
		p.cfg.Crash.Hit("pyramid.persist.page")
		patch.Pages = append(patch.Pages, PageMeta{
			Ref:    ref,
			KeyMin: append([]uint64(nil), chunk[0].Cols[:p.cfg.Schema.KeyCols]...),
			Rows:   len(chunk),
		})
		base = end
	}
	patch.filter = buildFilter(sorted, k)
	desc := MarshalPatch(p.cfg.ID, patch)
	d, err := p.store.WriteDescriptor(done, desc, uint64(seqLo), uint64(seqHi))
	if err != nil {
		return nil, done, err
	}
	// The descriptor is in the segio log but its segment may not be sealed
	// yet; a crash here relies on the frontier scan (or NVRAM replay) to
	// recover the facts.
	p.cfg.Crash.Hit("pyramid.persist.desc")
	return patch, d, nil
}

// AddPatch installs a patch discovered during recovery. It is idempotent:
// a patch whose sequence range is already covered is dropped, and a patch
// covering existing patches replaces them (a merged patch rediscovered
// alongside its inputs). A descriptor read back from the drives is checked
// first: every page's KeyMin must have the schema's key columns, and the
// KeyMins must ascend strictly, as every lookup's binary search assumes;
// a patch that breaks either is refused and nothing is installed.
func (p *Pyramid) AddPatch(patch *Patch) error {
	k := p.cfg.Schema.KeyCols
	for i, pm := range patch.Pages {
		if len(pm.KeyMin) != k {
			return fmt.Errorf("pyramid %s: patch [%d,%d] page %d: first key has %d columns, schema has %d key columns",
				p.cfg.Name, patch.SeqLo, patch.SeqHi, i, len(pm.KeyMin), k)
		}
		if i > 0 && tuple.CompareKeys(patch.Pages[i-1].KeyMin, pm.KeyMin, k) >= 0 {
			return fmt.Errorf("pyramid %s: patch [%d,%d] page %d: first key %v does not ascend from page %d's %v",
				p.cfg.Name, patch.SeqLo, patch.SeqHi, i, pm.KeyMin, i-1, patch.Pages[i-1].KeyMin)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.installPatchLocked(patch)
	if patch.SeqHi > p.flushedThrough {
		p.flushedThrough = patch.SeqHi
	}
	return nil
}

// installPatchLocked adds a patch maintaining SeqHi-descending order and
// containment-based idempotency. Caller holds mu.
func (p *Pyramid) installPatchLocked(patch *Patch) {
	kept := make([]*Patch, 0, len(p.patches)+1)
	for _, existing := range p.patches {
		if existing.SeqLo >= patch.SeqLo && existing.SeqHi <= patch.SeqHi {
			continue // covered by the new patch: superseded
		}
		if patch.SeqLo >= existing.SeqLo && patch.SeqHi <= existing.SeqHi {
			// New patch already covered: drop it, keep everything.
			return
		}
		kept = append(kept, existing)
	}
	p.patches = append(kept, patch)
	sort.Slice(p.patches, func(i, j int) bool { return p.patches[i].SeqHi > p.patches[j].SeqHi })
}

// openPage fetches and decodes a page, via the cache. A failure names the
// pyramid and the page.
func (p *Pyramid) openPage(at sim.Time, ref Ref) (*pagecodec.Page, sim.Time, error) {
	if pg, ok := p.cache.get(ref); ok {
		return pg, at, nil
	}
	raw, done, err := p.store.ReadPage(at, ref)
	var pg *pagecodec.Page
	if err == nil {
		pg, err = pagecodec.Open(p.cfg.Schema, raw)
	}
	if err != nil {
		return nil, done, fmt.Errorf("pyramid %s: page at segment %d offset %d length %d: %w",
			p.cfg.Name, ref.Segment, ref.Off, ref.Len, err)
	}
	p.cache.put(ref, pg)
	return pg, done, nil
}

// elided reports whether the fact is deleted by the wired elide table.
func (p *Pyramid) elided(f tuple.Fact) bool {
	return p.elide != nil && p.elide.Elided(f)
}
