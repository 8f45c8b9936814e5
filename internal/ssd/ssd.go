// Package ssd models the consumer MLC solid state drives Purity is built
// from (§2.1, §5.1 of the paper). The model keeps data in RAM but reproduces
// the behaviours the paper's design reacts to:
//
//   - Parallel dies: peak throughput needs deep queues; a die servicing a
//     program or erase stalls reads to it (the read-latency spikes §4.4
//     schedules around).
//   - Pages, erase blocks, program/erase asymmetry: pages must be erased in
//     erase-block units before rewrite; erases are slow.
//   - A simplified FTL: purely sequential writes within an allocation unit
//     pass through at native cost; random overwrites trigger FTL
//     relocation, costing extra latency and write amplification ("random
//     writes considered harmful").
//   - Endurance: erases wear blocks; worn blocks begin failing reads
//     (detected, as with a real drive's internal ECC).
//   - Whole-drive failure and revival, for pull-a-drive experiments.
//
// All latencies are simulated (package sim); operations take an issue time
// and return a completion time. Data operations are real byte copies, so
// the storage stack above is exercised end to end.
package ssd

import (
	"errors"
	"fmt"
	"sync"

	"purity/internal/sim"
)

// Config describes one drive's geometry and timing.
type Config struct {
	Capacity       int64 // usable bytes; must be a multiple of EraseBlockSize
	Dies           int   // independent parallel dies
	PageSize       int   // program/read granularity, bytes
	EraseBlockSize int   // erase granularity, bytes
	// DieStripe is the channel-striping granularity: consecutive DieStripe
	// chunks of the address space interleave across dies, so large writes
	// program several dies in parallel — and stall reads on exactly those
	// dies (§4.4's latency spikes). Defaults to 32 KiB.
	DieStripe int

	ReadLatency    sim.Time // fixed page-read service time
	ProgramLatency sim.Time // fixed page-program service time
	EraseLatency   sim.Time // per erase-block erase time
	TransferPerKiB sim.Time // bus transfer cost per KiB moved

	// RandomWritePenalty multiplies program cost for non-append writes and
	// adds (penalty-1)× write amplification, modelling FTL relocation.
	RandomWritePenalty int

	// PELimit is the rated program/erase cycles per erase block. Beyond it,
	// each further erase gives the block a WearFailureProb chance of
	// becoming bad (reads return ErrCorrupt until erased... in real drives
	// the block is retired; we keep it failing to force upper-layer repair).
	PELimit         int
	WearFailureProb float64 // per-erase probability once past PELimit

	// BitFlipRate is the per-program probability (per touched erase block)
	// of a single silent bit flip in the just-written data — the latent
	// errors that slip past drive-internal ECC (§5.1). Unlike a bad block,
	// the drive returns the flipped data without error; only end-to-end
	// CRCs above catch it. Zero disables injection.
	BitFlipRate float64

	Seed uint64 // RNG seed for wear failures and bit flips
}

// DefaultConfig returns the scaled-down drive the test suite and benchmarks
// use: timings are typical consumer-MLC figures; capacity is small so arrays
// of 11+ drives stay laptop-sized.
func DefaultConfig() Config {
	return Config{
		Capacity:       256 << 20,
		Dies:           8,
		PageSize:       4 << 10,
		EraseBlockSize: 1 << 20,
		DieStripe:      32 << 10,
		ReadLatency:    80 * sim.Microsecond,
		// Effective per-page program cost: raw MLC programs run ~1.3 ms,
		// but multi-plane interleaving overlaps several pages per die.
		ProgramLatency:     250 * sim.Microsecond,
		EraseLatency:       4 * sim.Millisecond,
		TransferPerKiB:     2 * sim.Microsecond,
		RandomWritePenalty: 4,
		PELimit:            3000,
		WearFailureProb:    0.02,
		Seed:               1,
	}
}

// Errors returned by device operations.
var (
	ErrFailed  = errors.New("ssd: drive failed")
	ErrCorrupt = errors.New("ssd: uncorrectable page (drive-internal ECC)")
	ErrBounds  = errors.New("ssd: access out of bounds")
)

// Stats counts a drive's lifetime activity.
type Stats struct {
	HostBytesRead     int64
	HostBytesWritten  int64
	FlashBytesWritten int64 // includes FTL relocation amplification
	Erases            int64
	RandomWrites      int64 // writes that paid the FTL relocation penalty
	StalledReads      int64 // reads that queued behind a program/erase
	QueuedReads       int64 // reads that queued behind other reads only
	MaxWear           int   // highest per-block P/E count
	BadBlocks         int
	BitFlips          int64 // silent bit flips injected (BitFlipRate + FlipBit)
}

// dieState tracks one die's current contiguous busy period. Operations of
// every kind queue behind busyUntil; an operation issued after an idle gap
// starts a new period. peUntil is when the last program or erase of the
// period finishes (busyFrom ≤ peUntil ≤ busyUntil): a read that joins the
// queue before then waits for it, one that joins later waits for reads
// only. So the die is busy in §4.4's sense — "writing or erasing" — until
// peUntil, and merely queueing reads in [peUntil, busyUntil).
type dieState struct {
	busyFrom  sim.Time
	busyUntil sim.Time
	peUntil   sim.Time
}

// stalls reports whether a read of the given service time issued at t would
// wait for a program or erase on this die: one is in progress or queued, or
// is scheduled to start before the read could finish (dieSchedule then
// queues the read behind it).
func (ds dieState) stalls(t, service sim.Time) bool {
	return t < ds.peUntil && t+service > ds.busyFrom
}

type eraseBlock struct {
	wear    int
	bad     bool
	written int64 // high-water mark of programmed bytes within the block
	// valid is how much of the block's buffer holds its contents: programmed
	// bytes, flipped bits and the zeros between them. Past it a reused
	// buffer may still hold an earlier block's bytes, which read as zeros.
	valid int64
}

// Device is one simulated drive. Methods are safe for concurrent use; the
// timing model serializes per-die work exactly as a real die would.
type Device struct {
	cfg Config
	id  string

	mu      sync.Mutex
	failed  bool
	data    map[int64][]byte // erase-block index -> contents (lazily allocated)
	free    [][]byte         // up to freeBlocksMax erased blocks' buffers, never cleared
	blocks  []eraseBlock
	dies    []dieState
	rng     *sim.Rand
	flipRng *sim.Rand // separate stream so wear failures stay reproducible
	stats   Stats
}

// New returns a device with the given id and configuration.
func New(id string, cfg Config) (*Device, error) {
	if cfg.Capacity <= 0 || cfg.EraseBlockSize <= 0 || cfg.PageSize <= 0 || cfg.Dies <= 0 {
		return nil, fmt.Errorf("ssd: invalid config %+v", cfg)
	}
	if cfg.Capacity%int64(cfg.EraseBlockSize) != 0 {
		return nil, fmt.Errorf("ssd: capacity %d not a multiple of erase block %d", cfg.Capacity, cfg.EraseBlockSize)
	}
	if cfg.EraseBlockSize%cfg.PageSize != 0 {
		return nil, fmt.Errorf("ssd: erase block %d not a multiple of page %d", cfg.EraseBlockSize, cfg.PageSize)
	}
	if cfg.RandomWritePenalty < 1 {
		cfg.RandomWritePenalty = 1
	}
	if cfg.DieStripe <= 0 {
		cfg.DieStripe = 32 << 10
	}
	if cfg.DieStripe%cfg.PageSize != 0 {
		return nil, fmt.Errorf("ssd: die stripe %d not a multiple of page %d", cfg.DieStripe, cfg.PageSize)
	}
	nBlocks := cfg.Capacity / int64(cfg.EraseBlockSize)
	return &Device{
		cfg:     cfg,
		id:      id,
		data:    make(map[int64][]byte),
		blocks:  make([]eraseBlock, nBlocks),
		dies:    make([]dieState, cfg.Dies),
		rng:     sim.NewRand(cfg.Seed),
		flipRng: sim.NewRand(cfg.Seed*2654435761 + 0x5f1d), // independent stream
	}, nil
}

// ID returns the drive identifier.
func (d *Device) ID() string { return d.id }

// Config returns the drive's configuration.
func (d *Device) Config() Config { return d.cfg }

// Capacity returns usable bytes.
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// blockIndex returns the erase block containing off.
func (d *Device) blockIndex(off int64) int64 { return off / int64(d.cfg.EraseBlockSize) }

// dieFor maps a byte offset to the die that owns its stripe chunk.
func (d *Device) dieFor(off int64) int {
	return int((off / int64(d.cfg.DieStripe)) % int64(d.cfg.Dies))
}

// dieShares returns, per die index, how many bytes of [off, off+n) land on
// it. Dies service their shares in parallel.
func (d *Device) dieShares(off int64, n int) map[int]int64 {
	shares := make(map[int]int64, d.cfg.Dies)
	pos := off
	remaining := int64(n)
	for remaining > 0 {
		chunk := int64(d.cfg.DieStripe) - pos%int64(d.cfg.DieStripe)
		if chunk > remaining {
			chunk = remaining
		}
		shares[d.dieFor(pos)] += chunk
		pos += chunk
		remaining -= chunk
	}
	return shares
}

func (d *Device) transfer(n int) sim.Time {
	return sim.Time(int64(d.cfg.TransferPerKiB) * ((int64(n) + 1023) / 1024))
}

// ReadAt copies len(p) bytes at off into p. It returns the simulated
// completion time for a request issued at `at`. Reads of a failed drive or
// of a worn-out (bad) erase block fail.
func (d *Device) ReadAt(at sim.Time, p []byte, off int64) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return at, ErrFailed
	}
	if off < 0 || off+int64(len(p)) > d.cfg.Capacity {
		return at, ErrBounds
	}
	if len(p) == 0 {
		return at, nil
	}
	d.stats.HostBytesRead += int64(len(p))

	// Data copy, block by block.
	remaining := p
	pos := off
	for len(remaining) > 0 {
		bi := d.blockIndex(pos)
		if d.blocks[bi].bad {
			return at, ErrCorrupt
		}
		blockOff := pos % int64(d.cfg.EraseBlockSize)
		n := int64(d.cfg.EraseBlockSize) - blockOff
		if n > int64(len(remaining)) {
			n = int64(len(remaining))
		}
		got := 0
		if chunk, ok := d.data[bi]; ok {
			got = copy(remaining[:n], chunk[blockOff:max(blockOff, d.blocks[bi].valid)])
		}
		clear(remaining[got:n])
		remaining = remaining[n:]
		pos += n
	}

	// Timing: each touched die serves its share in parallel; the op
	// completes when the slowest die plus the bus transfer finish.
	done := d.occupyRead(at, off, len(p))
	return done, nil
}

// WriteAt programs len(p) bytes at off. Programming a page that already
// holds data is a *random* write: the simplified FTL relocates it (extra
// latency, extra flash writes) rather than failing, matching how real
// consumer drives behave. Sequential appends within an erase block run at
// native cost. Returns the simulated completion time.
func (d *Device) WriteAt(at sim.Time, p []byte, off int64) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return at, ErrFailed
	}
	if off < 0 || off+int64(len(p)) > d.cfg.Capacity {
		return at, ErrBounds
	}
	if len(p) == 0 {
		return at, nil
	}
	d.stats.HostBytesWritten += int64(len(p))

	random := false
	remaining := p
	pos := off
	for len(remaining) > 0 {
		bi := d.blockIndex(pos)
		blockOff := pos % int64(d.cfg.EraseBlockSize)
		n := int64(d.cfg.EraseBlockSize) - blockOff
		if n > int64(len(remaining)) {
			n = int64(len(remaining))
		}
		b := &d.blocks[bi]
		if blockOff < b.written {
			// Overwrite of already-programmed pages: FTL relocation.
			random = true
			b.bad = false // FTL maps around previously bad pages on rewrite
		}
		chunk := d.validTo(bi, blockOff)
		copy(chunk[blockOff:], remaining[:n])
		if d.cfg.BitFlipRate > 0 && d.flipRng.Float64() < d.cfg.BitFlipRate {
			// Latent error: flip one bit somewhere in the bytes just
			// programmed into this block. Silent — the read path returns
			// the damaged data without ErrCorrupt.
			at := blockOff + int64(d.flipRng.Intn(int(n)))
			chunk[at] ^= 1 << (d.flipRng.Intn(8))
			d.stats.BitFlips++
		}
		if end := blockOff + n; end > b.written {
			b.written = end
		}
		b.valid = max(b.valid, blockOff+n)
		remaining = remaining[n:]
		pos += n
	}

	penalty := 1
	flash := int64(len(p))
	if random {
		d.stats.RandomWrites++
		penalty = d.cfg.RandomWritePenalty
		flash *= int64(d.cfg.RandomWritePenalty)
		// Relocation erases: charge wear to the touched blocks.
		for bi := d.blockIndex(off); bi <= d.blockIndex(off+int64(len(p))-1); bi++ {
			d.wearBlock(bi)
		}
	}
	d.stats.FlashBytesWritten += flash

	done := d.occupyWrite(at, off, len(p), penalty)
	return done, nil
}

// Erase resets the erase block containing off (off must be block-aligned),
// charging one P/E cycle. Worn-out blocks may go bad.
func (d *Device) Erase(at sim.Time, off int64) (sim.Time, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return at, ErrFailed
	}
	if off < 0 || off >= d.cfg.Capacity || off%int64(d.cfg.EraseBlockSize) != 0 {
		return at, ErrBounds
	}
	bi := d.blockIndex(off)
	if chunk, ok := d.data[bi]; ok {
		delete(d.data, bi)
		if len(d.free) < freeBlocksMax {
			d.free = append(d.free, chunk)
		}
	}
	d.blocks[bi].written, d.blocks[bi].valid = 0, 0
	d.blocks[bi].bad = false
	d.stats.Erases++
	d.wearBlock(bi)

	// An erase block spans every die its chunks stripe across; the erase
	// stalls them all (real drives exhibit exactly these whole-drive
	// hiccups during erases, §2.1).
	done := at
	for die := range d.dieShares(off, d.cfg.EraseBlockSize) {
		start, gapFit := d.dieSchedule(die, at, d.cfg.EraseLatency)
		dieDone := start + d.cfg.EraseLatency
		if !gapFit {
			d.occupyDie(die, start, dieDone, true)
		}
		if dieDone > done {
			done = dieDone
		}
	}
	return done, nil
}

// freeBlocksMax bounds a drive's list of erased blocks' buffers. A drive
// programs its blocks one after another, so a few buffers carry a steady
// program/erase cycle; a longer list would keep what a burst of erases
// frees (GC reclaiming many segments at once) for the drive's life.
const freeBlocksMax = 8

// validTo returns erase block bi's buffer with its valid prefix reaching at
// least off, about to be changed there. A block that has no buffer takes an
// erased block's, or a new one; nothing is cleared but the gap between the
// valid prefix and off, which a sequential append never leaves. Caller
// holds mu.
func (d *Device) validTo(bi, off int64) []byte {
	chunk, ok := d.data[bi]
	if !ok {
		if n := len(d.free); n > 0 {
			chunk = d.free[n-1]
			d.free[n-1] = nil
			d.free = d.free[:n-1]
		} else {
			chunk = make([]byte, d.cfg.EraseBlockSize)
		}
		d.data[bi] = chunk
	}
	if b := &d.blocks[bi]; off > b.valid {
		clear(chunk[b.valid:off])
		b.valid = off
	}
	return chunk
}

// wearBlock increments wear and maybe marks the block bad. Caller holds mu.
func (d *Device) wearBlock(bi int64) {
	b := &d.blocks[bi]
	b.wear++
	if b.wear > d.stats.MaxWear {
		d.stats.MaxWear = b.wear
	}
	if b.wear > d.cfg.PELimit && d.rng.Float64() < d.cfg.WearFailureProb {
		if !b.bad {
			b.bad = true
			d.stats.BadBlocks++
		}
	}
}

// dieSchedule picks the start time for an operation of the given service
// length on a die: immediately when the die is idle, in the idle gap before
// a future-scheduled busy window when the op fits there, and queued behind
// the window otherwise. Gap-fit ops do not alter the window.
func (d *Device) dieSchedule(die int, at, service sim.Time) (start sim.Time, gapFit bool) {
	ds := &d.dies[die]
	if at >= ds.busyUntil {
		return at, false
	}
	if at+service <= ds.busyFrom {
		return at, true
	}
	return ds.busyUntil, false
}

// occupyRead schedules a read: each touched die serves its share (one read
// service per touched die, in parallel); the op completes when the slowest
// die finishes plus the bus transfer. A read that waits on any die behind a
// program or erase is recorded as a stall; one that waits only behind other
// reads is recorded as queued.
func (d *Device) occupyRead(at sim.Time, off int64, n int) sim.Time {
	slowest := at
	stalled, queued := false, false
	for die := range d.dieShares(off, n) {
		start, gapFit := d.dieSchedule(die, at, d.cfg.ReadLatency)
		if start > at {
			if d.dies[die].stalls(at, d.cfg.ReadLatency) {
				stalled = true
			} else {
				queued = true
			}
		}
		dieDone := start + d.cfg.ReadLatency
		if !gapFit {
			d.occupyDie(die, start, dieDone, false)
		}
		if dieDone > slowest {
			slowest = dieDone
		}
	}
	switch {
	case stalled:
		d.stats.StalledReads++
	case queued:
		d.stats.QueuedReads++
	}
	return slowest + d.transfer(n)
}

// occupyWrite schedules a program: each die programs its share of pages in
// parallel, scaled by the FTL relocation penalty for random writes.
func (d *Device) occupyWrite(at sim.Time, off int64, n, penalty int) sim.Time {
	slowest := at
	for die, bytes := range d.dieShares(off, n) {
		pages := (bytes + int64(d.cfg.PageSize) - 1) / int64(d.cfg.PageSize)
		service := sim.Time(int64(d.cfg.ProgramLatency) * pages * int64(penalty))
		start, gapFit := d.dieSchedule(die, at, service)
		dieDone := start + service
		if !gapFit {
			d.occupyDie(die, start, dieDone, true)
		}
		if dieDone > slowest {
			slowest = dieDone
		}
	}
	return slowest + d.transfer(n)
}

// occupyDie extends or opens a die's busy period for [start, done). An
// operation that begins while the die is still busy (start ≤ busyUntil)
// continues the current period; otherwise a new period opens at start, so
// work scheduled in the future does not make the die look busy now. pe
// marks a program or erase, which also moves peUntil; a read only
// lengthens the queue.
func (d *Device) occupyDie(die int, start, done sim.Time, pe bool) {
	ds := &d.dies[die]
	if start > ds.busyUntil {
		ds.busyFrom, ds.peUntil = start, start
	}
	if done > ds.busyUntil {
		ds.busyUntil = done
	}
	if pe {
		ds.peUntil = ds.busyUntil
	}
}

// BusyRangeAt reports whether a read of [off, off+n) issued at time t would
// wait for a program or erase on any die it touches — the §4.4 signal: the
// read would stall for milliseconds, so the scheduler reconstructs instead.
// A die that is only serving other reads is not busy: a read behind a read
// waits tens of microseconds, which is not worth K extra reads and a
// Reed–Solomon pass. It is exactly the condition StalledReads counts.
func (d *Device) BusyRangeAt(t sim.Time, off int64, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for die := range d.dieShares(off, n) {
		if d.dies[die].stalls(t, d.cfg.ReadLatency) {
			return true
		}
	}
	return false
}

// BusyAt is BusyRangeAt over the whole drive.
func (d *Device) BusyAt(t sim.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ds := range d.dies {
		if ds.stalls(t, d.cfg.ReadLatency) {
			return true
		}
	}
	return false
}

// Fail takes the drive offline (pulled from the shelf). All subsequent
// operations return ErrFailed until Revive. Data is preserved, as pulling a
// drive does not erase it.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Revive brings a failed drive back online.
func (d *Device) Revive() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// Failed reports whether the drive is offline.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// CorruptBlock marks the erase block containing off bad, simulating charge
// leakage on worn flash (§5.1). Reads will fail until it is erased.
func (d *Device) CorruptBlock(off int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.blockIndex(off)
	if !d.blocks[bi].bad {
		d.blocks[bi].bad = true
		d.stats.BadBlocks++
	}
}

// FlipBit deterministically flips one bit of the byte at off — the test
// hook for injecting a single latent error at a known location. Like
// BitFlipRate damage, the flip is silent: reads succeed and return the
// damaged byte.
func (d *Device) FlipBit(off int64, bit uint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off >= d.cfg.Capacity {
		return
	}
	bi := d.blockIndex(off)
	at := off % int64(d.cfg.EraseBlockSize)
	chunk := d.validTo(bi, at+1)
	chunk[at] ^= 1 << (bit % 8)
	d.stats.BitFlips++
}

// Stats returns a snapshot of the drive's counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
