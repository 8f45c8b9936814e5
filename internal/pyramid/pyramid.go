package pyramid

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"purity/internal/crashpoint"
	"purity/internal/elide"
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
}

// Pyramid is one LSM index. Readers (Get, GetFloor, GetCeil, Scan,
// ScanVersions) are safe to run concurrently with each other and with a
// mutator; merge and flatten operate on immutable patches so readers never
// block on them (§4.8: "everything below the top level... lock-free" —
// expressed here with a short-held mutex around the patch list swap, the Go
// idiom). Mutators (Insert, Flush, MergeStep, AddPatch) must not overlap
// one another: Flush rebuilds the memtable from what it saw before writing
// its patch. The engine runs them under Array.mu.
type Pyramid struct {
	cfg   Config
	store PageStore
	elide *elide.Table // optional; nil means no elision for this relation

	mu             sync.RWMutex
	mem            []tuple.Fact // unsorted recent facts (durable in NVRAM)
	memSorted      bool
	sortedLen      int          // prefix of mem already in stable-sorted order
	memScratch     []tuple.Fact // reused merge buffer for incremental sorts
	patches        []*Patch     // sorted by SeqHi descending (newest first)
	flushedThrough tuple.Seq

	cache *pageCache
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
// Every fact is validated against the schema before any is appended, so a
// SchemaError leaves the memtable untouched.
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
	p.mem = append(p.mem, facts...)
	p.memSorted = false
	return nil
}

// MemRows returns the number of facts in the memtable.
func (p *Pyramid) MemRows() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.mem)
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
// returning the first failure. Crash sweeps use it as a post-recovery
// invariant: any page a recovered patch descriptor references must be
// present, checksummed, and decodable.
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
				return done, fmt.Errorf("pyramid %s: patch [%d,%d] page %+v: %w",
					p.cfg.Name, patch.SeqLo, patch.SeqHi, pm.Ref, err)
			}
		}
	}
	return done, nil
}

// sortMemLocked sorts the memtable (key asc, seq desc) if needed. The
// result is exactly sort.SliceStable over the whole slice; since lookups
// re-sort after every small Insert batch, the work is done incrementally —
// only the appended suffix is sorted and then stably merged with the
// already-sorted prefix (ties take the prefix element, which was inserted
// earlier, preserving stable order). Caller holds mu.
func (p *Pyramid) sortMemLocked() {
	if p.memSorted {
		return
	}
	k := p.cfg.Schema.KeyCols
	if p.sortedLen > 0 && p.sortedLen < len(p.mem) {
		suffix := p.mem[p.sortedLen:]
		sort.SliceStable(suffix, func(i, j int) bool { return tuple.Less(suffix[i], suffix[j], k) })
		p.mergeSortedMemLocked(k)
	} else {
		sort.SliceStable(p.mem, func(i, j int) bool { return tuple.Less(p.mem[i], p.mem[j], k) })
	}
	p.memSorted = true
	p.sortedLen = len(p.mem)
}

// mergeSortedMemLocked merges mem's sorted prefix [0:sortedLen) with its
// sorted suffix into the scratch buffer, then swaps buffers so the old
// backing array is reused next time. Caller holds mu.
func (p *Pyramid) mergeSortedMemLocked(k int) {
	prefix := p.mem[:p.sortedLen]
	suffix := p.mem[p.sortedLen:]
	if cap(p.memScratch) < len(p.mem) {
		p.memScratch = make([]tuple.Fact, 0, len(p.mem)*2)
	}
	out := p.memScratch[:0]
	i, j := 0, 0
	for i < len(prefix) && j < len(suffix) {
		if tuple.Less(suffix[j], prefix[i], k) {
			out = append(out, suffix[j])
			j++
		} else {
			out = append(out, prefix[i])
			i++
		}
	}
	out = append(out, prefix[i:]...)
	out = append(out, suffix[j:]...)
	old := p.mem
	p.mem = out
	p.memScratch = old[:0]
}

// Flush writes every memtable fact with Seq ≤ persistedThrough into a new
// patch and installs it. Facts newer than persistedThrough stay in the
// memtable — this is the Figure 4 write-ahead invariant: an index never
// reaches a segment before its sequence numbers are durable in NVRAM.
// Flushing with nothing eligible is a no-op.
func (p *Pyramid) Flush(at sim.Time, persistedThrough tuple.Seq) (sim.Time, error) {
	p.mu.Lock()
	// Partition memtable into eligible and retained.
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
	k := p.cfg.Schema.KeyCols
	sort.SliceStable(eligible, func(i, j int) bool { return tuple.Less(eligible[i], eligible[j], k) })
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
		p.mem = retained
		p.memSorted = false
		p.sortedLen = 0
		p.mu.Unlock()
		return at, nil
	}
	p.mu.Unlock()

	patch, done, err := p.writePatch(at, eligible, seqLo, seqHi)
	if err != nil {
		return done, err
	}

	p.mu.Lock()
	p.mem = retained
	p.memSorted = false
	p.sortedLen = 0
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
		// Never split the versions of one key across pages: the newest
		// version of any key is then always the first row of its run in a
		// single page, which Get and GetFloor rely on.
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
// alongside its inputs).
func (p *Pyramid) AddPatch(patch *Patch) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.installPatchLocked(patch)
	if patch.SeqHi > p.flushedThrough {
		p.flushedThrough = patch.SeqHi
	}
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

// openPage fetches and decodes a page, via the cache.
func (p *Pyramid) openPage(at sim.Time, ref Ref) (*pagecodec.Page, sim.Time, error) {
	if pg, ok := p.cache.get(ref); ok {
		return pg, at, nil
	}
	raw, done, err := p.store.ReadPage(at, ref)
	if err != nil {
		return nil, done, err
	}
	//lint:ignore taintverify pagecodec.Open verifies the page checksum in its header before decoding and fails closed on mismatch
	pg, err := pagecodec.Open(p.cfg.Schema, raw)
	if err != nil {
		return nil, done, err
	}
	p.cache.put(ref, pg)
	return pg, done, nil
}

// elided reports whether the fact is deleted by the wired elide table.
func (p *Pyramid) elided(f tuple.Fact) bool {
	return p.elide != nil && p.elide.Elided(f)
}
