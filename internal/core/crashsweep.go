package core

// Crash-point sweep: systematic crash-consistency enumeration.
//
// Purity's correctness claim is logical monotonicity — recovery is a set
// union of immutable facts, so a hard crash at *any* instant in the
// write/commit/checkpoint/GC path must recover to a correct array (§3.2,
// §4.3 of the paper). This file turns that claim into a checked property:
//
//  1. Census: run a deterministic mixed workload (writes, overwrites,
//     snapshots, clones, deletes, GC, dedup, checkpoints, reopens) with a
//     crashpoint.Registry counting how many times each named fault point
//     is passed.
//  2. Enumerate: for every (point, hit) pair, re-run the identical
//     workload with the registry armed to panic at exactly that pass —
//     a simulated power loss. Everything on the simulated devices
//     survives; the Array instance (all DRAM state) is abandoned.
//  3. Recover and verify: reopen from the shared shelf and check the
//     full array against a flat model, plus structural invariants.
//
// The only tolerated divergence is the single in-flight operation — it
// never acknowledged, so it may be wholly present or wholly absent.
// Every acknowledged operation must survive exactly. Failures carry the
// seed, point id and hit count needed to reproduce in one command:
//
//	go test -run 'TestCrashSweep/lanes=L/<point>/hit=N' ./internal/core/

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"purity/internal/crashpoint"
	"purity/internal/layout"
	"purity/internal/shelf"
	"purity/internal/sim"
)

// SweepOptions configures a crash sweep. The zero value gets defaults from
// withDefaults.
type SweepOptions struct {
	Seed  uint64 // workload RNG seed
	Ops   int    // workload steps per run
	Lanes int    // commit lanes the swept array runs with (default 1)

	// MaxHitsPerPoint caps the enumerated hit counts per point: hits
	// 1..cap plus the final hit are swept. 0 sweeps every hit.
	MaxHitsPerPoint int

	// Points restricts the sweep to points with one of these prefixes
	// (e.g. "gc." or "nvram.append.torn"). Nil sweeps everything.
	Points []string

	// FullScanCheck additionally recovers each case with a full-array
	// scan and verifies it too — frontier-bounded and full recovery must
	// agree.
	FullScanCheck bool

	Log func(format string, args ...any) // optional progress sink
}

func (o SweepOptions) withDefaults() SweepOptions {
	if o.Seed == 0 {
		o.Seed = 20260806
	}
	if o.Ops <= 0 {
		o.Ops = 80
	}
	if o.Lanes <= 0 {
		o.Lanes = 1
	}
	return o
}

func (o SweepOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// SweepFailure is one (point, hit) case that did not recover to model
// equivalence.
type SweepFailure struct {
	Point string
	Hit   int
	Err   string
}

// SweepReport summarizes a full sweep.
type SweepReport struct {
	Seed     uint64
	Lanes    int
	Census   map[string]int // point -> hits per workload run
	Points   int            // distinct points
	Cases    int            // (point, hit) cases executed
	Failures []SweepFailure
}

// SweepLanes are the commit-lane counts every sweep runs at: the one-lane
// case and the count purity-server, purity-inspect and the benchmark use.
var SweepLanes = []int{1, 4}

// SweepEngineConfig is the array configuration the sweep workload runs
// under: small and aggressive, so every background mechanism (flush,
// merge, checkpoint, frontier refill, GC evacuation) triggers within a
// short workload. lanes is the commit-lane count: the sweep runs the one
// write path at one lane and at the count the server ships with.
func SweepEngineConfig(lanes int) Config {
	cfg := TestConfig()
	cfg.CommitLanes = lanes
	cfg.Shelf.DriveConfig.Capacity = 160 * cfg.Layout.AUSize()
	cfg.BackgroundEvery = 6
	cfg.MemtableFlushRows = 48
	cfg.MaxPatches = 2
	cfg.CheckpointEvery = 2
	cfg.GCLiveThreshold = 0.9 // almost every sealed segment is a GC candidate
	return cfg
}

// sweepPattern produces deterministic, moderately compressible sector
// data (the non-test twin of core_test.go's pattern helper).
func sweepPattern(seed uint64, n int) []byte {
	out := make([]byte, n)
	r := sim.NewRand(seed)
	for i := 0; i < n; i += 16 {
		v := r.Uint64()
		for j := 0; j < 16 && i+j < n; j++ {
			out[i+j] = byte(v >> (j % 8 * 8))
		}
	}
	return out
}

const (
	sweepVolSectors = 128 // 64 KiB volumes keep full-content verification cheap
	sweepVolBytes   = sweepVolSectors * 512
	sweepMaxVols    = 8
)

// sweepVol mirrors one volume in the flat model. Volumes are tracked by
// name; IDs are recorded once the engine returns them.
type sweepVol struct {
	name    string
	id      VolumeID
	data    []byte
	snap    bool
	deleted bool
}

// sweepPending describes the operation in flight when a crash fired. The
// op never acknowledged, so verification accepts both its before and
// after states — unless the crash fired past the op's commit point
// (durable), when only the after state will do; every other volume must
// match the model exactly.
type sweepPending struct {
	kind string // "", "write", "create", "snapshot", "clone", "delete"
	// durable: the crash point sits after the NVRAM append (set by
	// RunCrashCase), so replay must land the op.
	durable bool
	vol     string // target volume name (write/snapshot source/delete)
	name    string // new volume name (create/snapshot/clone)
	off     int64
	data    []byte // write payload
	src     []byte // expected content of the new volume
}

// sweepRun is one workload execution against one freshly formatted shelf.
type sweepRun struct {
	cfg     Config
	a       *Array
	sh      *shelf.Shelf
	now     sim.Time
	r       *sim.Rand
	vols    []*sweepVol
	pending sweepPending
}

func newSweepRun(cfg Config, seed uint64) (*sweepRun, error) {
	a, err := Format(cfg)
	if err != nil {
		return nil, err
	}
	return &sweepRun{
		cfg: cfg,
		a:   a,
		sh:  a.Shelf(),
		r:   sim.NewRand(seed),
	}, nil
}

func (run *sweepRun) live(snapOK bool) []*sweepVol {
	var out []*sweepVol
	for _, v := range run.vols {
		if v.deleted || (v.snap && !snapOK) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// workload runs the mixed operation stream. It is a pure function of the
// seed: the census run and every armed run execute the identical sequence
// up to the instant the armed point fires (as a crashpoint.Crash panic,
// which the caller recovers).
func (run *sweepRun) workload(ops int) error {
	// Two starter volumes so every op has a target from step 0.
	for i := 0; i < 2; i++ {
		if err := run.opCreate(fmt.Sprintf("base-%d", i)); err != nil {
			return err
		}
	}
	for step := 0; step < ops; step++ {
		vols := run.live(false)
		op := run.r.Intn(100)
		switch {
		case op < 45 && len(vols) > 0:
			v := vols[run.r.Intn(len(vols))]
			off := int64(run.r.Intn(sweepVolSectors-1)) * 512
			n := (run.r.Intn(16) + 1) * 512
			if off+int64(n) > sweepVolBytes {
				n = int(sweepVolBytes - off)
			}
			// Every fourth write reuses one of a few payload seeds, so the
			// dedup path (inline hits, background dedup, GC segregation)
			// gets real duplicate runs to find.
			seed := uint64(step) + 7777
			if step%4 == 0 {
				seed = uint64(step%3) + 42
			}
			if err := run.opWrite(v, off, sweepPattern(seed, n)); err != nil {
				return fmt.Errorf("step %d: write: %w", step, err)
			}
		case op < 55 && len(run.vols) < sweepMaxVols:
			if err := run.opCreate(fmt.Sprintf("vol-%d", step)); err != nil {
				return fmt.Errorf("step %d: create: %w", step, err)
			}
		case op < 64 && len(vols) > 0 && len(run.vols) < sweepMaxVols:
			v := vols[run.r.Intn(len(vols))]
			if err := run.opSnapshot(v, fmt.Sprintf("snap-%d", step)); err != nil {
				return fmt.Errorf("step %d: snapshot: %w", step, err)
			}
		case op < 70 && len(run.vols) < sweepMaxVols:
			var snaps []*sweepVol
			for _, v := range run.vols {
				if v.snap && !v.deleted {
					snaps = append(snaps, v)
				}
			}
			if len(snaps) == 0 {
				continue
			}
			src := snaps[run.r.Intn(len(snaps))]
			if err := run.opClone(src, fmt.Sprintf("clone-%d", step)); err != nil {
				return fmt.Errorf("step %d: clone: %w", step, err)
			}
		case op < 76 && len(run.live(true)) > 3:
			all := run.live(true)
			v := all[run.r.Intn(len(all))]
			if err := run.opDelete(v); err != nil {
				return fmt.Errorf("step %d: delete: %w", step, err)
			}
		case op < 84:
			_, d, err := run.a.RunGC(run.now)
			if err != nil {
				return fmt.Errorf("step %d: gc: %w", step, err)
			}
			run.now = d
		case op < 88:
			_, d, err := run.a.BackgroundDedup(run.now)
			if err != nil {
				return fmt.Errorf("step %d: bg dedup: %w", step, err)
			}
			run.now = d
		case op < 91:
			d, err := run.a.FlushAll(run.now)
			if err != nil {
				return fmt.Errorf("step %d: flush: %w", step, err)
			}
			run.now = d
		case op < 93:
			if err := run.opDriveLifecycle(); err != nil {
				return fmt.Errorf("step %d: drive lifecycle: %w", step, err)
			}
		case op < 95:
			run.opCorrupt()
		case op < 97:
			_, d, err := run.a.ScrubStep(run.now, 2)
			if err != nil {
				return fmt.Errorf("step %d: scrub: %w", step, err)
			}
			run.now = d
		default:
			// Clean crash + reopen: exercises recovery (and, when a
			// recover.* point is armed, crash-during-recovery).
			a2, _, err := OpenAt(run.cfg, run.sh, run.now, false)
			if err != nil {
				return fmt.Errorf("step %d: reopen: %w", step, err)
			}
			run.a = a2
		}
	}
	return nil
}

func (run *sweepRun) opWrite(v *sweepVol, off int64, data []byte) error {
	run.pending = sweepPending{kind: "write", vol: v.name, off: off, data: data}
	d, err := run.a.WriteAt(run.now, v.id, off, data)
	if err != nil {
		return err
	}
	run.now = d
	copy(v.data[off:], data)
	run.pending = sweepPending{}
	return nil
}

func (run *sweepRun) opCreate(name string) error {
	run.pending = sweepPending{kind: "create", name: name, src: make([]byte, sweepVolBytes)}
	id, d, err := run.a.CreateVolume(run.now, name, sweepVolBytes)
	if err != nil {
		return err
	}
	run.now = d
	run.vols = append(run.vols, &sweepVol{name: name, id: id, data: make([]byte, sweepVolBytes)})
	run.pending = sweepPending{}
	return nil
}

func (run *sweepRun) opSnapshot(v *sweepVol, name string) error {
	run.pending = sweepPending{kind: "snapshot", vol: v.name, name: name,
		src: append([]byte(nil), v.data...)}
	id, d, err := run.a.Snapshot(run.now, v.id, name)
	if err != nil {
		return err
	}
	run.now = d
	run.vols = append(run.vols, &sweepVol{name: name, id: id,
		data: append([]byte(nil), v.data...), snap: true})
	run.pending = sweepPending{}
	return nil
}

func (run *sweepRun) opClone(src *sweepVol, name string) error {
	run.pending = sweepPending{kind: "clone", vol: src.name, name: name,
		src: append([]byte(nil), src.data...)}
	id, d, err := run.a.Clone(run.now, src.id, name)
	if err != nil {
		return err
	}
	run.now = d
	run.vols = append(run.vols, &sweepVol{name: name, id: id,
		data: append([]byte(nil), src.data...)})
	run.pending = sweepPending{}
	return nil
}

// opDriveLifecycle pulls one healthy drive, swaps in a replacement, and
// rebuilds it back to full redundancy — the whole failure lifecycle in one
// deterministic step, so the rebuild.* fault points land in the census. A
// crash anywhere inside leaves a pulled or part-rebuilt drive for recovery
// to cope with.
func (run *sweepRun) opDriveLifecycle() error {
	drive := run.r.Intn(run.sh.NumDrives())
	if run.sh.State(drive) != shelf.DriveHealthy {
		return nil
	}
	if err := run.sh.PullDrive(drive); err != nil {
		return err
	}
	d, err := run.a.ReplaceDrive(run.now, drive)
	if err != nil {
		return err
	}
	run.now = d
	_, d, err = run.a.Rebuild(run.now, drive)
	if err != nil {
		return err
	}
	run.now = d
	return nil
}

// opCorrupt flips one bit in a random write unit of a random sealed
// segment — silent latent damage that verified reads and scrub must catch
// and repair. Only sealed segments are targeted: their trailer CRCs are
// what makes the damage detectable shard-by-shard.
func (run *sweepRun) opCorrupt() {
	a := run.a
	a.mu.Lock()
	ids := a.sealedIDsLocked()
	if len(ids) == 0 {
		a.mu.Unlock()
		return
	}
	info := a.segMap[ids[run.r.Intn(len(ids))]]
	a.mu.Unlock()
	if info.Stripes == 0 {
		return
	}
	au := info.AUs[run.r.Intn(len(info.AUs))]
	drv := run.sh.Drive(au.Drive)
	s := run.r.Intn(info.Stripes)
	off := au.Offset(run.cfg.Layout) + int64(s)*int64(run.cfg.Layout.WriteUnit) +
		int64(run.r.Intn(run.cfg.Layout.WriteUnit))
	drv.FlipBit(off, uint(run.r.Intn(8)))
}

func (run *sweepRun) opDelete(v *sweepVol) error {
	run.pending = sweepPending{kind: "delete", vol: v.name}
	d, err := run.a.Delete(run.now, v.id)
	if err != nil {
		return err
	}
	run.now = d
	v.deleted = true
	run.pending = sweepPending{}
	return nil
}

// verify checks a recovered array against the model: structural
// invariants first, then full content of every volume.
func (run *sweepRun) verify(a *Array) error {
	if err := run.checkInvariants(a); err != nil {
		return err
	}

	infos, d, err := a.Volumes(run.now)
	if err != nil {
		return fmt.Errorf("listing volumes: %w", err)
	}
	run.now = d
	byName := make(map[string]VolumeInfo, len(infos))
	for _, info := range infos {
		if _, dup := byName[info.Name]; dup {
			return fmt.Errorf("duplicate volume name %q in catalog", info.Name)
		}
		byName[info.Name] = info
	}

	p := run.pending
	readBack := func(id VolumeID) ([]byte, error) {
		got, d, err := a.ReadAt(run.now, id, 0, sweepVolBytes)
		if err != nil {
			return nil, err
		}
		run.now = d
		return got, nil
	}

	for _, v := range run.vols {
		info, present := byName[v.name]
		if present {
			delete(byName, v.name)
		}
		if v.deleted {
			// Acked deletes must hold: the catalog hides the volume and
			// reads fail.
			if present {
				return fmt.Errorf("deleted volume %q still listed", v.name)
			}
			if _, _, err := a.ReadAt(run.now, v.id, 0, 512); err != ErrVolumeDeleted && err != ErrNoSuchVolume {
				return fmt.Errorf("deleted volume %q readable: %v", v.name, err)
			}
			continue
		}
		if !present {
			if p.kind == "delete" && p.vol == v.name {
				continue // in-flight delete landed: post state
			}
			return fmt.Errorf("volume %q missing after recovery", v.name)
		}
		if info.Snapshot != v.snap {
			return fmt.Errorf("volume %q snapshot=%v, want %v", v.name, info.Snapshot, v.snap)
		}
		got, err := readBack(info.ID)
		if err != nil {
			if p.kind == "delete" && p.vol == v.name && err == ErrVolumeDeleted {
				continue
			}
			return fmt.Errorf("reading volume %q: %w", v.name, err)
		}
		want := v.data
		if p.kind == "write" && p.vol == v.name {
			post := append([]byte(nil), v.data...)
			copy(post[p.off:], p.data)
			if bytes.Equal(got, post) {
				continue // in-flight write landed: post state
			}
			if p.durable {
				want = post // its record was durable: replay is what the ack stands on
			}
		}
		if bytes.Equal(got, want) {
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("volume %q diverges at byte %d (sector %d)", v.name, i, i/512)
			}
		}
		return fmt.Errorf("volume %q diverges (length?)", v.name)
	}

	// Anything left in the catalog must be the in-flight creation.
	for name, info := range byName {
		creating := p.kind == "create" || p.kind == "snapshot" || p.kind == "clone"
		if !creating || p.name != name {
			return fmt.Errorf("unexpected volume %q after recovery", name)
		}
		if info.Snapshot != (p.kind == "snapshot") {
			return fmt.Errorf("in-flight volume %q snapshot=%v for op %s", name, info.Snapshot, p.kind)
		}
		got, err := readBack(info.ID)
		if err != nil {
			return fmt.Errorf("reading in-flight volume %q: %w", name, err)
		}
		if !bytes.Equal(got, p.src) {
			return fmt.Errorf("in-flight volume %q content diverges", name)
		}
	}
	return nil
}

// checkInvariants verifies the structural recovery invariants:
//
//   - No index entry ahead of NVRAM: every pyramid's flushed watermark is
//     bounded by the persisted sequence number (the Figure 4 write-ahead
//     invariant, at rest).
//   - The allocation frontier and in-use segment AUs are disjoint — the
//     frontier bounds the recovery scan, so an in-use AU inside it would
//     mean data sitting where new segments will be written.
//   - Every page referenced by a recovered patch descriptor is readable
//     and decodable.
func (run *sweepRun) checkInvariants(a *Array) error {
	a.mu.Lock()
	persisted := a.persistedSeq
	current := a.seqs.Current()
	inUse := map[layout.AU]layout.SegmentID{}
	for id, info := range a.segMap {
		for _, au := range info.AUs {
			inUse[au] = id
		}
	}
	frontier := append(a.alloc.Frontier(), a.alloc.Speculative()...)
	a.mu.Unlock()

	// Recovery legitimately issues sequence numbers beyond persistedSeq:
	// the segment-relation refresh re-derives rows from AU trailers with
	// fresh seqs and deliberately skips NVRAM (a later crash re-derives
	// them again). The invariant is only that the persisted watermark
	// never runs ahead of issuance.
	if persisted > current {
		return fmt.Errorf("persistedSeq %d ahead of current seq %d after recovery", persisted, current)
	}
	for _, au := range frontier {
		if id, clash := inUse[au]; clash {
			return fmt.Errorf("frontier AU %+v belongs to live segment %d", au, id)
		}
	}
	for _, relID := range a.relationIDs() {
		p := a.pyr[relID]
		if ft := p.FlushedThrough(); ft > persisted {
			return fmt.Errorf("relation %d flushed through %d, ahead of persisted %d", relID, ft, persisted)
		}
		if _, err := p.VerifyPages(run.now); err != nil {
			return fmt.Errorf("patch page verify: %w", err)
		}
	}
	return nil
}

// openRecovered reopens from the shelf, tolerating one armed-crash panic
// (the fired latch guarantees the immediate retry cannot fire again —
// that retry is the "crash during recovery, recover again" path).
func (run *sweepRun) openRecovered(fullScan bool) (a *Array, crashed bool, err error) {
	for attempt := 0; attempt < 2; attempt++ {
		a, err = func() (out *Array, err error) {
			defer func() {
				if v := recover(); v != nil {
					if _, ok := crashpoint.AsCrash(v); ok {
						crashed = true
						err = fmt.Errorf("crash during recovery")
						return
					}
					panic(v)
				}
			}()
			out, _, err = OpenAt(run.cfg, run.sh, run.now, fullScan)
			return out, err
		}()
		if err == nil {
			return a, crashed, nil
		}
		if !crashed {
			return nil, false, err
		}
	}
	return nil, crashed, err
}

// CrashCensus runs the workload once with an unarmed registry and returns
// how many times each crash point was passed. Genesis (Format) hits are
// excluded, exactly as in armed runs.
func CrashCensus(opts SweepOptions) (map[string]int, error) {
	opts = opts.withDefaults()
	reg := crashpoint.New()
	cfg := SweepEngineConfig(opts.Lanes)
	cfg.Crash = reg
	run, err := newSweepRun(cfg, opts.Seed)
	if err != nil {
		return nil, err
	}
	reg.ResetCounts()
	if err := run.workload(opts.Ops); err != nil {
		return nil, fmt.Errorf("census workload (seed %d): %w", opts.Seed, err)
	}
	census := reg.Counts()
	// The window between a write's group commit and its apply: every write
	// passes it, at every lane count.
	if census["lane.apply.before"] == 0 {
		return nil, fmt.Errorf("census (seed %d, lanes %d): lane.apply.before never hit — the workload is not running the commit path", opts.Seed, opts.Lanes)
	}
	return census, nil
}

// RunCrashCase executes one (point, hit) case: identical workload, crash
// at exactly that pass, recover, verify. A nil return means the array
// recovered to model equivalence and every invariant held.
func RunCrashCase(opts SweepOptions, point string, hit int) error {
	opts = opts.withDefaults()
	fail := func(format string, args ...any) error {
		return fmt.Errorf("crash case lanes=%d point=%s hit=%d seed=%d: %s",
			opts.Lanes, point, hit, opts.Seed, fmt.Sprintf(format, args...))
	}
	reg := crashpoint.New()
	cfg := SweepEngineConfig(opts.Lanes)
	cfg.Crash = reg
	run, err := newSweepRun(cfg, opts.Seed)
	if err != nil {
		return fail("format: %v", err)
	}
	reg.ResetCounts()
	reg.Arm(point, hit)

	crashed := false
	err = func() (err error) {
		defer func() {
			if v := recover(); v != nil {
				if _, ok := crashpoint.AsCrash(v); ok {
					crashed = true
					return
				}
				panic(v)
			}
		}()
		return run.workload(opts.Ops)
	}()
	if err != nil {
		return fail("workload: %v", err)
	}
	if !crashed {
		return fail("armed point never fired (census drift?)")
	}
	// The one point between a write's group commit and its apply: the
	// record is in NVRAM, so the write must survive although it never acked.
	run.pending.durable = point == "lane.apply.before"

	// The torn/corrupt points model damage to the record that was being
	// appended when power failed: replay must drop it, not trust it.
	switch point {
	case "nvram.append.torn":
		for i := 0; i < run.sh.NumNVRAM(); i++ {
			run.sh.NVRAM(i).TornTail()
		}
	case "nvram.append.corrupt":
		for i := 0; i < run.sh.NumNVRAM(); i++ {
			run.sh.NVRAM(i).CorruptTail()
		}
	}

	a, _, err := run.openRecovered(false)
	if err != nil {
		return fail("recovery: %v", err)
	}
	if err := run.verify(a); err != nil {
		return fail("verify: %v", err)
	}
	if opts.FullScanCheck {
		aFull, _, err := run.openRecovered(true)
		if err != nil {
			return fail("full-scan recovery: %v", err)
		}
		if err := run.verify(aFull); err != nil {
			return fail("full-scan verify: %v", err)
		}
	}
	// Double recovery: crash again immediately (abandon the recovered
	// instance without any shutdown) and recover once more.
	a2, _, err := run.openRecovered(false)
	if err != nil {
		return fail("second recovery: %v", err)
	}
	if err := run.verify(a2); err != nil {
		return fail("second verify: %v", err)
	}
	return nil
}

// sweepHits returns the hit counts to enumerate for one point.
func sweepHits(count, cap int) []int {
	if cap <= 0 || count <= cap {
		hits := make([]int, count)
		for i := range hits {
			hits[i] = i + 1
		}
		return hits
	}
	hits := make([]int, 0, cap+1)
	for i := 1; i <= cap; i++ {
		hits = append(hits, i)
	}
	return append(hits, count) // always include the final pass
}

// selectedPoint applies the Points prefix filter.
func selectedPoint(opts SweepOptions, point string) bool {
	if len(opts.Points) == 0 {
		return true
	}
	for _, p := range opts.Points {
		if strings.HasPrefix(point, p) {
			return true
		}
	}
	return false
}

// RunCrashSweep runs the census and then every selected (point, hit)
// case. The bench CS experiment and opt-in full sweeps call this; the
// tier-1 test enumerates the same cases as subtests instead, for
// one-command reproduction.
func RunCrashSweep(opts SweepOptions) (SweepReport, error) {
	opts = opts.withDefaults()
	rep := SweepReport{Seed: opts.Seed, Lanes: opts.Lanes}
	census, err := CrashCensus(opts)
	if err != nil {
		return rep, err
	}
	rep.Census = census
	points := make([]string, 0, len(census))
	for p := range census {
		points = append(points, p)
	}
	sort.Strings(points)
	rep.Points = len(points)
	for _, point := range points {
		if !selectedPoint(opts, point) {
			continue
		}
		hits := sweepHits(census[point], opts.MaxHitsPerPoint)
		opts.logf("sweep %-28s %d hits, %d cases", point, census[point], len(hits))
		for _, hit := range hits {
			rep.Cases++
			if err := RunCrashCase(opts, point, hit); err != nil {
				opts.logf("FAIL %v", err)
				rep.Failures = append(rep.Failures, SweepFailure{Point: point, Hit: hit, Err: err.Error()})
			}
		}
	}
	return rep, nil
}
