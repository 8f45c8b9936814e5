package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"purity/internal/crashpoint"
	"purity/internal/dedup"
	"purity/internal/elide"
	"purity/internal/erasure"
	"purity/internal/frontier"
	"purity/internal/iosched"
	"purity/internal/layout"
	"purity/internal/pipeline"
	"purity/internal/pyramid"
	"purity/internal/relation"
	"purity/internal/shelf"
	"purity/internal/sim"
	"purity/internal/telemetry"
	"purity/internal/tuple"
)

// Segment classes: segments are specialized by what they hold, so that GC
// can treat them differently — the paper segregates deduplicated blocks
// into their own segments (§4.7) and metadata has different lifetime than
// user data.
type segClass int

const (
	classData segClass = iota
	classMeta
	classGC
	classDedup
	numClasses
)

// openSeg is one slot that holds a segment open for appends: the four
// class writers (replayed data, metadata, GC, dedup) and every lane's data
// segment are each one. w is read and written under mu; installing or
// detaching a writer additionally holds Array.mu, so a holder of Array.mu
// sees a slot that does not change hands; Array.mu is never taken while a
// slot mutex is held. The declaration below is checked, not trusted:
// purity-lint's lockorder rule rebuilds the acquisition graph from every
// body in the module and reports any blocking edge that runs against it.
//
//lint:lockorder Array.world < Array.mu < openSeg.mu
type openSeg struct {
	mu sync.Mutex
	w  *layout.Writer
	// rotations counts the segments this slot sealed because they filled.
	rotations telemetry.Counter
	// Slots sit side by side in Array.slots and lanes lock theirs on every
	// append from different cores: pad to a cache line so they do not share
	// one.
	_ [40]byte
}

// segItem is one append to a segment: a data blob, placed from the front of
// the segio, or with log set a log record covering sequence numbers
// [lo, hi], placed from the back (§4.2).
type segItem struct {
	b      []byte
	log    bool
	lo, hi tuple.Seq
}

// appendTo appends the item to w, returning the logical offset of data.
func (it segItem) appendTo(w *layout.Writer, at sim.Time) (int64, sim.Time, error) {
	if it.log {
		done, err := w.AppendLog(at, it.b, it.lo, it.hi)
		return 0, done, err
	}
	return w.AppendData(at, it.b)
}

// Array is one Purity storage engine instance. All public methods are safe
// for concurrent use: the pure-CPU stages of a write (compression, dedup
// hashing, parity arithmetic) run before or outside the engine mutex on a
// shared worker pool, and the mutex covers only what genuinely needs
// ordering — sequence allocation, placement bookkeeping, NVRAM appends and
// fact application (see DESIGN.md, "Write path").
type Array struct {
	cfg   Config
	shelf *shelf.Shelf
	coder *erasure.Coder
	// pool runs the write path's pure-CPU stages (cblock packing, dedup
	// hashing, RS parity, CRCs) across cores without holding mu.
	pool *pipeline.Pool

	mu sync.Mutex

	// world gates the commit path: write commits hold it in read mode for
	// their whole critical section, and every maintenance or mutating entry
	// point (GC, scrub, rebuild, checkpoint, volume catalog changes) takes
	// it in write mode first, so cross-volume invariants see a quiesced
	// commit plane. Lock order: world → mu → openSeg.mu.
	world sync.RWMutex
	// lanes are the commit shards (Config.CommitLanes of them, at least
	// one); committer is their shared batching NVRAM commit point.
	lanes     []*commitLane
	committer *nvCommitter
	// laneInflight counts lane commits currently holding world in read
	// mode. nvramAppendLocked must not checkpoint (a whole-NVRAM-log trim)
	// while any are in flight: another lane's record could be durable but
	// not yet applied, and trimming it would lose an acked write across a
	// crash. Checkpoints therefore only run at world-exclusive points,
	// where this count is provably zero.
	laneInflight atomic.Int64

	seqs        *tuple.SeqSource
	nextMedium  uint64
	nextVolume  uint64
	nextSegment uint64
	epoch       uint64

	pyr    map[uint32]*pyramid.Pyramid
	elides map[uint32]*elide.Table

	alloc  *layout.Allocator
	reader *layout.Reader
	boot   *frontier.BootRegion

	// slots are the open segments, in a fixed order: one per class, then
	// one per lane. openByID indexes the occupied ones; it changes only where
	// a writer is installed or detached, which holds mu.
	slots    []openSeg
	openByID map[layout.SegmentID]*openSeg
	// segMap holds each segment's info as newSegmentWriterLocked, a seal,
	// recovery or rebuild last wrote it. An open segment's entry goes stale
	// as it fills: readers consult the open slots first (segInfoLocked), and
	// writeCheckpoint refreshes the open entries before persisting the map.
	segMap map[layout.SegmentID]layout.SegmentInfo
	// liveBytes approximates live data per segment (§3.3: materialized
	// aggregates kept approximately; GC recomputes exactly).
	liveBytes map[layout.SegmentID]int64

	recent  *dedup.RecentIndex
	cblocks *cblockCache

	persistedSeq tuple.Seq // highest seq durable in NVRAM
	opsSinceBG   int
	bgSinceCkpt  int

	// lost marks shards whose current AU holds no valid data yet — rebuild
	// targets between drive replacement and data copy. The reader skips
	// them (as home and as donor) and serves those shards from parity.
	// Guarded by lostMu, not mu: the reader consults it through a callback
	// while mu is already held.
	lostMu sync.Mutex
	lost   map[layout.SegmentID]map[int]bool

	scrubCursor layout.SegmentID // resume point for the paced scrub walker

	// crash is the (possibly nil) fault-point registry from Config.Crash.
	crash *crashpoint.Registry

	stats Stats

	// readTracker holds the latencies of recent reads that waited for a
	// drive; the hedge threshold is a percentile of it (§4.4).
	readTracker *iosched.Tracker
	// gov is the tail-latency SLO governor (§4.4): fed by every foreground
	// read, consulted by background work (scrub pacing) and by the TCP
	// front end's priority queues. Never nil; a negative Config.SLOBudget
	// leaves it permanently unthreatened.
	gov  *iosched.Governor
	cpus []sim.Time // per-core busyUntil (§4.4's pinned event cores)
}

// Counters are the engine counters that Stats accumulates and StatsSnapshot
// reports unchanged. Histograms record simulated latencies.
type Counters struct {
	Writes, Reads       int64
	WriteLatency        *telemetry.Histogram
	ReadLatency         *telemetry.Histogram
	SegRead             layout.ReadStats
	DedupHits           int64
	DedupMisses         int64
	InlineDupBlocks     int64
	GCRuns              int64
	GCBytesMoved        int64
	GCSegsReclaimed     int64
	Checkpoints         int64
	FrontierWrites      int64
	CacheHits           int64
	CacheMisses         int64
	Flattened           int64
	HedgedReads         int64 // reads that raced a reconstruction against a slow drive read
	HedgeWins           int64 // hedged reads whose reconstruction landed first
	SpeculativePromotes int64
	// Drive-health lifecycle counters (§5.1, §4.2): scrub passes and their
	// in-place repairs, drive replacements, and completed rebuilds.
	ScrubPasses      int64
	ScrubSegments    int64
	ScrubWUsRepaired int64
	// ScrubDeferrals counts paced scrub steps skipped because the SLO
	// governor reported the foreground read tail over budget.
	ScrubDeferrals  int64
	DriveReplaces   int64
	Rebuilds        int64
	RebuildSegments int64
	RebuildBytes    int64
}

// Stats aggregates engine counters.
type Stats struct {
	Counters
	Reduction *telemetry.Reduction
	// SegReadErrors / UnpackErrors / ExtentReadErrors count segment-read,
	// cblock-unpack, and extent-read failures (formerly ad-hoc debug
	// prints). The first two are survived — reads reconstruct, dedup
	// candidates are skipped — but a nonzero rate is the first sign of a
	// placement or liveness bug; an extent-read failure propagates to the
	// client with structured detail.
	SegReadErrors    *telemetry.Counter
	UnpackErrors     *telemetry.Counter
	ExtentReadErrors *telemetry.Counter
	// PackedBytes counts the input bytes foreground writes hand to
	// cblock.Pack — the work §4.7's order saves: a write compresses only
	// what the duplicate search left (plus, rarely, a later extent packed
	// alongside a miss that then hit). Replay's re-pack is not counted.
	PackedBytes *telemetry.Counter
}

func newStats() Stats {
	return Stats{
		Counters: Counters{
			WriteLatency: telemetry.NewHistogram(),
			ReadLatency:  telemetry.NewHistogram(),
		},
		Reduction:        &telemetry.Reduction{},
		SegReadErrors:    telemetry.NewCounter(),
		UnpackErrors:     telemetry.NewCounter(),
		ExtentReadErrors: telemetry.NewCounter(),
		PackedBytes:      telemetry.NewCounter(),
	}
}

// Errors.
var (
	ErrNoSuchVolume  = errors.New("core: no such volume")
	ErrVolumeDeleted = errors.New("core: volume deleted")
	ErrVolumeExists  = errors.New("core: volume name already in use")
	ErrOutOfRange    = errors.New("core: I/O beyond volume size")
	ErrUnaligned     = errors.New("core: I/O not sector aligned")
)

// Format initializes a brand-new array on a fresh shelf and returns it
// ready for service.
func Format(cfg Config) (*Array, error) {
	cfg = cfg.normalize()
	sh, err := shelf.New(cfg.Shelf)
	if err != nil {
		return nil, err
	}
	return format(cfg, sh)
}

func format(cfg Config, sh *shelf.Shelf) (*Array, error) {
	a, err := newSkeleton(cfg, sh)
	if err != nil {
		return nil, err
	}
	a.epoch = 1
	a.nextMedium = 1
	a.nextVolume = 1
	a.nextSegment = 1
	// Seed the frontier and persist the genesis checkpoint.
	if _, err := a.writeCheckpoint(0, true); err != nil {
		return nil, err
	}
	return a, nil
}

// newSkeleton builds the engine structure with empty state.
func newSkeleton(cfg Config, sh *shelf.Shelf) (*Array, error) {
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	coder, err := erasure.New(cfg.Layout.DataShards, cfg.Layout.ParityShards)
	if err != nil {
		return nil, err
	}
	caps := make([]int64, sh.NumDrives())
	for i := range caps {
		caps[i] = sh.Drive(i).Capacity()
	}
	alloc, err := layout.NewAllocator(cfg.Layout, caps)
	if err != nil {
		return nil, err
	}
	a := &Array{
		cfg:         cfg,
		shelf:       sh,
		coder:       coder,
		pool:        pipeline.Shared(),
		seqs:        tuple.NewSeqSource(0),
		pyr:         make(map[uint32]*pyramid.Pyramid),
		elides:      make(map[uint32]*elide.Table),
		alloc:       alloc,
		reader:      layout.NewReader(cfg.Layout, sh.Drives(), coder),
		boot:        frontier.NewBootRegion(cfg.Layout, sh.Drives()),
		slots:       make([]openSeg, int(numClasses)+cfg.CommitLanes), // normalize: at least one lane
		openByID:    make(map[layout.SegmentID]*openSeg),
		segMap:      make(map[layout.SegmentID]layout.SegmentInfo),
		liveBytes:   make(map[layout.SegmentID]int64),
		lost:        make(map[layout.SegmentID]map[int]bool),
		recent:      dedup.NewRecentIndex(cfg.RecentIndexSize),
		cblocks:     newCBlockCache(cfg.CBlockCacheEntries),
		stats:       newStats(),
		readTracker: iosched.NewTracker(1024),
		gov:         iosched.NewGovernor(cfg.SLOBudget, 4096),
		cpus:        make([]sim.Time, cfg.CPUCores),
		crash:       cfg.Crash,
	}
	a.boot.SetCrash(cfg.Crash)
	a.reader.SetShardLost(a.shardLost)
	a.lanes = make([]*commitLane, cfg.CommitLanes)
	for i := range a.lanes {
		a.lanes[i] = newCommitLane(i, &a.slots[int(numClasses)+i])
	}
	a.committer = &nvCommitter{a: a}
	for _, id := range []uint32{
		relation.IDMediums, relation.IDAddrs, relation.IDDedup,
		relation.IDSegments, relation.IDSegmentAUs, relation.IDVolumes, relation.IDElide,
	} {
		schema, _ := relation.SchemaFor(id)
		et := elide.NewTable()
		a.elides[id] = et
		cfg := pyramid.Config{
			ID:     id,
			Name:   fmt.Sprintf("rel%d", id),
			Schema: schema,
			Crash:  a.crash,
		}
		switch id {
		case relation.IDAddrs:
			// An older address entry stays live until newer same-key
			// entries cover its whole sector range (a shorter overwrite
			// leaves the old entry's tail visible).
			cfg.Shadowed = func(older tuple.Fact, keptNewer []tuple.Fact) bool {
				oldEnd := older.Cols[1] + older.Cols[6] // Sector + Sectors
				for _, n := range keptNewer {
					if n.Cols[1]+n.Cols[6] >= oldEnd {
						return true
					}
				}
				return false
			}
		case relation.IDElide:
			// Elide records are never removed (§4.10); range collapse in
			// the in-memory table bounds their count, not merges.
			cfg.Shadowed = func(tuple.Fact, []tuple.Fact) bool { return false }
		}
		p, err := pyramid.New(cfg, (*pageStore)(a), et)
		if err != nil {
			return nil, err
		}
		a.pyr[id] = p
	}
	return a, nil
}

// relationIDs returns the relation IDs in a fixed order, so background
// work (flushes, merges, checkpoints) is deterministic run to run.
func (a *Array) relationIDs() []uint32 {
	ids := make([]uint32, 0, len(a.pyr))
	for id := range a.pyr {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Shelf exposes the underlying shelf for fault injection in tests and
// experiments.
func (a *Array) Shelf() *shelf.Shelf { return a.shelf }

// Governor exposes the engine's tail-latency SLO governor so front ends can
// fold the same foreground-vs-background arbitration into their queues.
func (a *Array) Governor() *iosched.Governor { return a.gov }

// Config returns the array's configuration after normalization.
func (a *Array) Config() Config { return a.cfg }

// failedDrive reports whether a drive is offline, for the allocator.
func (a *Array) failedDrive(d int) bool { return a.shelf.Drive(d).Failed() }

// shardLost is the reader's lost-shard oracle.
func (a *Array) shardLost(id layout.SegmentID, slot int) bool {
	a.lostMu.Lock()
	defer a.lostMu.Unlock()
	return a.lost[id][slot]
}

// setShardLost marks or clears one shard's lost state.
func (a *Array) setShardLost(id layout.SegmentID, slot int, v bool) {
	a.lostMu.Lock()
	defer a.lostMu.Unlock()
	if v {
		m := a.lost[id]
		if m == nil {
			m = make(map[int]bool)
			a.lost[id] = m
		}
		m[slot] = true
		return
	}
	if m := a.lost[id]; m != nil {
		delete(m, slot)
		if len(m) == 0 {
			delete(a.lost, id)
		}
	}
}

// clearSegmentLost drops every lost mark of a segment (on retirement).
func (a *Array) clearSegmentLost(id layout.SegmentID) {
	a.lostMu.Lock()
	defer a.lostMu.Unlock()
	delete(a.lost, id)
}

// lostShardOn returns the shard of segment id placed on `drive` that is
// marked lost, or -1. A segment never has two shards on one drive.
func (a *Array) lostShardOn(info layout.SegmentInfo, drive int) int {
	for slot, au := range info.AUs {
		if au.Drive == drive && a.shardLost(info.ID, slot) {
			return slot
		}
	}
	return -1
}

// cpuLocked occupies the least-busy event core for `cost`, returning when
// the op's CPU work finishes. Requests queue behind busy cores — the
// engine's throughput ceiling is computational, as §4 observes of the real
// system. Caller holds mu.
func (a *Array) cpuLocked(at sim.Time, cost sim.Time) sim.Time {
	best := 0
	for i := 1; i < len(a.cpus); i++ {
		if a.cpus[i] < a.cpus[best] {
			best = i
		}
	}
	start := sim.Max(at, a.cpus[best])
	done := start + cost
	a.cpus[best] = done
	return done
}

// newSegmentWriterLocked allocates a fresh segment (refilling the frontier
// through the boot region when needed) and returns its writer, with the
// segment's existence and placement recorded as facts. Caller holds mu.
func (a *Array) newSegmentWriterLocked(at sim.Time) (*layout.Writer, sim.Time, error) {
	done := at
	aus, err := a.alloc.AllocateSegment(a.failedDrive)
	if err == layout.ErrNeedFrontier && a.alloc.PromoteSpeculative() {
		// The speculative set was persisted with the last checkpoint, so
		// extending the frontier from it costs no boot-region write (§4.3).
		a.stats.SpeculativePromotes++
		aus, err = a.alloc.AllocateSegment(a.failedDrive)
	}
	// A refill draws from the drives with the most free AUs first, so after
	// uneven frees one batch can land on fewer than K+M drives; each further
	// batch levels the free pool, so refill until the segment fits or the
	// pool is empty.
	for err == layout.ErrNeedFrontier {
		before := a.alloc.FrontierSize()
		a.alloc.RefillFrontier(a.cfg.FrontierBatch)
		if a.alloc.FrontierSize() == before {
			break
		}
		// Persisting the frontier before using it is what bounds the
		// recovery scan (§4.3). This is the "<1% of writes" path.
		d, werr := a.writeFrontierLocked(done)
		if werr != nil {
			return nil, d, werr
		}
		done = d
		aus, err = a.alloc.AllocateSegment(a.failedDrive)
	}
	if err != nil {
		return nil, done, err
	}
	id := layout.SegmentID(a.nextSegment)
	a.nextSegment++
	w, err := layout.NewWriter(a.cfg.Layout, a.shelf.Drives(), a.coder, id, aus)
	if err != nil {
		return nil, done, err
	}
	w.SetParallel(a.pool.Run)
	w.SetCrash(a.crash)
	a.segMap[id] = w.Info()

	// Record the segment's existence and placement as facts.
	facts := []tuple.Fact{relation.SegmentRow{
		Segment:    uint64(id),
		State:      relation.SegmentOpen,
		TotalBytes: uint64(a.cfg.Layout.SegmentLogicalSize()),
	}.Fact(a.seqs.Next())}
	//lint:ignore commitorder segment existence is not log-replayed state: recovery re-derives open segments from the checkpoint frontier and AU trailers (recover steps 2-4), so no NVRAM append precedes this fact
	if err := a.pyr[relation.IDSegments].Insert(facts); err != nil {
		return nil, done, err
	}
	var auFacts []tuple.Fact
	for shard, au := range aus {
		auFacts = append(auFacts, relation.SegmentAURow{
			Segment: uint64(id), Shard: uint64(shard),
			Drive: uint64(au.Drive), AUIndex: uint64(au.Index),
		}.Fact(a.seqs.Next()))
	}
	//lint:ignore commitorder segment placement is re-derived from AU trailers and the frontier scan at recovery, not replayed from the NVRAM log
	if err := a.pyr[relation.IDSegmentAUs].Insert(auFacts); err != nil {
		return nil, done, err
	}
	return w, done, nil
}

// sealSlotLocked detaches a slot's writer, if it has one, and seals its
// segment: the segment map takes the sealed info and the sealed-state fact
// is recorded. Caller holds mu.
func (a *Array) sealSlotLocked(at sim.Time, s *openSeg) (sim.Time, error) {
	s.mu.Lock()
	w := s.w
	s.w = nil
	s.mu.Unlock()
	if w == nil {
		return at, nil
	}
	delete(a.openByID, w.Info().ID)
	// The seal fact's LiveBytes may lag lane commits whose deltas have not
	// been applied yet — the paper keeps these aggregates approximate (§3.3);
	// GC recomputes exact liveness.
	info, done, err := w.Seal(at)
	if err != nil {
		return done, err
	}
	a.segMap[info.ID] = info
	//lint:ignore commitorder the sealed-state fact mirrors the AU trailers the Seal call just wrote; recovery re-derives sealed segments from the trailers, not the NVRAM log
	if err := a.pyr[relation.IDSegments].Insert([]tuple.Fact{relation.SegmentRow{
		Segment:    uint64(info.ID),
		State:      relation.SegmentSealed,
		Stripes:    uint64(info.Stripes),
		TotalBytes: uint64(a.cfg.Layout.SegmentLogicalSize()),
		LiveBytes:  uint64(a.liveBytes[info.ID]),
	}.Fact(a.seqs.Next())}); err != nil {
		return done, err
	}
	return done, nil
}

// slotAppendLocked appends one item to a slot's open segment, opening a
// segment when the slot is empty and sealing the one that fills; it returns
// the segment and, for data, the logical offset. The slot mutex is released
// around allocation, which can flush every slot's segio (a frontier refill:
// writeFrontierLocked) and so takes every slot mutex; a seal works on a
// writer already detached. Caller holds mu, which alone keeps the slot from
// changing hands in between.
func (a *Array) slotAppendLocked(at sim.Time, s *openSeg, it segItem) (layout.SegmentID, int64, sim.Time, error) {
	done := at
	for attempt := 0; attempt < 3; attempt++ {
		s.mu.Lock()
		if s.w == nil {
			s.mu.Unlock()
			w, d, err := a.newSegmentWriterLocked(done)
			done = d
			if err != nil {
				return 0, 0, done, err
			}
			a.openByID[w.Info().ID] = s
			s.mu.Lock()
			s.w = w
		}
		id := s.w.Info().ID
		off, d, err := it.appendTo(s.w, done)
		s.mu.Unlock()
		done = d
		if err == nil {
			return id, off, done, nil
		}
		if err != layout.ErrSegmentFull {
			return 0, 0, done, err
		}
		if done, err = a.sealSlotLocked(done, s); err != nil {
			return 0, 0, done, err
		}
		s.rotations.Inc()
	}
	return 0, 0, done, errors.New("core: could not place item after segment rotation")
}

// appendDataLocked appends a blob to a class's segment. Returns the segment
// and logical offset. Caller holds mu.
func (a *Array) appendDataLocked(at sim.Time, class segClass, b []byte) (layout.SegmentID, int64, sim.Time, error) {
	return a.slotAppendLocked(at, &a.slots[class], segItem{b: b})
}

// appendLogLocked appends a log record (patch descriptor) to the metadata
// segment. Caller holds mu.
func (a *Array) appendLogLocked(at sim.Time, rec []byte, lo, hi tuple.Seq) (sim.Time, error) {
	_, _, done, err := a.slotAppendLocked(at, &a.slots[classMeta], segItem{b: rec, log: true, lo: lo, hi: hi})
	return done, err
}

// segInfoLocked returns the freshest SegmentInfo for a segment: the open
// slot's, whose stripe count advances, before the segment map's. Caller
// holds mu.
func (a *Array) segInfoLocked(id layout.SegmentID) (layout.SegmentInfo, bool) {
	if s := a.openByID[id]; s != nil {
		s.mu.Lock()
		info := s.w.Info()
		s.mu.Unlock()
		return info, true
	}
	info, ok := a.segMap[id]
	return info, ok
}

// policyMode is the mode every read but a hedge's second arm runs in: the
// configured policy's answer to a home drive that is programming or erasing.
func (a *Array) policyMode() layout.ReadMode {
	if a.cfg.ReadPolicy.AvoidBusy {
		return layout.ReadAvoidBusy
	}
	return layout.ReadHome
}

// readSegmentLocked reads a byte range of a segment: the pending segio
// buffer first, then the drives in the given mode. Caller holds mu.
func (a *Array) readSegmentLocked(at sim.Time, id layout.SegmentID, off int64, n int, mode layout.ReadMode) ([]byte, sim.Time, error) {
	info, ok := a.segMap[id]
	if s := a.openByID[id]; s != nil {
		s.mu.Lock()
		b, pending := s.w.ReadPending(off, n)
		info, ok = s.w.Info(), true
		s.mu.Unlock()
		if pending {
			return b, at, nil
		}
	}
	if !ok {
		return nil, at, fmt.Errorf("core: unknown segment %d", id)
	}
	b, done, rstats, err := a.reader.ReadRange(at, info, off, n, mode)
	a.stats.SegRead.Add(rstats)
	if err != nil && mode != layout.ReadAroundHome {
		// A hedge's second arm that finds too few peers just loses the race.
		a.stats.SegReadErrors.Inc()
	}
	return b, done, err
}

// pageStore adapts the array to the pyramid.PageStore interface. Metadata
// pages are segment data in the classMeta segments; patch descriptors are
// segio log records. The pyramids only persist when the engine drives
// them — flush, merge, checkpoint — all of which run under Array.mu, so
// every method here carries the lock annotation.
type pageStore Array

// WritePage appends a metadata page to the meta segment class. Caller
// holds mu.
func (s *pageStore) WritePage(at sim.Time, page []byte) (pyramid.Ref, sim.Time, error) {
	a := (*Array)(s)
	seg, off, done, err := a.appendDataLocked(at, classMeta, page)
	if err != nil {
		return pyramid.Ref{}, done, err
	}
	return pyramid.Ref{Segment: uint64(seg), Off: off, Len: int32(len(page))}, done, nil
}

// WriteDescriptor appends a patch descriptor log record. Caller holds mu.
func (s *pageStore) WriteDescriptor(at sim.Time, desc []byte, lo, hi uint64) (sim.Time, error) {
	a := (*Array)(s)
	return a.appendLogLocked(at, desc, tuple.Seq(lo), tuple.Seq(hi))
}

// ReadPage fetches a metadata page by reference. Caller holds mu.
func (s *pageStore) ReadPage(at sim.Time, ref pyramid.Ref) ([]byte, sim.Time, error) {
	a := (*Array)(s)
	return a.readSegmentLocked(at, layout.SegmentID(ref.Segment), ref.Off, int(ref.Len), a.policyMode())
}
