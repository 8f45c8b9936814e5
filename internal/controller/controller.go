// Package controller models Purity's dual-controller high availability
// (§4.1, §4.3 of the paper). An array has two stateless x86 controllers:
// the primary serves all traffic; the secondary accepts client connections
// in active-active fashion but forwards every request to the primary over
// the internal interconnect. When the primary dies, the secondary recovers
// the engine state from the shared shelf (boot region + frontier scan +
// NVRAM replay) and takes over; the paper's hard budget for this is the
// 30-second client I/O timeout.
//
// The primary also asynchronously ships its hot-cache contents to the
// secondary ("the primary controller asynchronously warms the cache of the
// secondary"), shrinking post-failover latencies.
package controller

import (
	"errors"
	"time"

	"purity/internal/core"
	"purity/internal/lockrank"
	"purity/internal/shelf"
	"purity/internal/sim"
)

// Role selects which controller a client request arrives at.
type Role int

// The two controllers of a pair.
const (
	Primary Role = iota
	Secondary
)

// Config tunes the pair.
type Config struct {
	// InterconnectHop is the one-way internal link latency (InfiniBand in
	// the paper). Requests via the secondary pay two hops.
	InterconnectHop sim.Time
	// DetectionTimeout is how long heartbeat loss takes to declare the
	// primary dead.
	DetectionTimeout sim.Time
	// WarmCache enables shipping the primary's hot cblock list to the
	// secondary, applied after failover.
	WarmCache bool
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		InterconnectHop:  10 * sim.Microsecond,
		DetectionTimeout: 2 * sim.Second,
		WarmCache:        true,
	}
}

// ErrUnavailable is returned while no controller holds the array (between
// primary death and failover completion). It is retryable: the op was not
// applied, and the survivor will serve it once failover completes.
var ErrUnavailable = errors.New("controller: array unavailable during failover")

// ErrNotActive fences a demoted controller: after a failover moves
// ownership away from a role, requests arriving via that role are refused
// outright (never forwarded), so a half-dead former primary can't serve
// stale state. The wire layer maps this to CodeNotPrimary and clients
// re-resolve to the survivor.
var ErrNotActive = errors.New("controller: not the active controller (failed over)")

// Pair is the two-controller array frontend. Safe for concurrent use: the
// server dispatches every client connection on its own goroutine, so the
// small amount of HA state here (who is alive, which engine is live) is
// guarded by mu (an RWMutex) — I/O takes the read side and rides the
// engine's own internal synchronization, failover takes the write side.
type Pair struct {
	cfg      Config
	arrayCfg core.Config
	shelf    *shelf.Shelf

	mu           lockrank.RWMutex[lockrank.ControllerPairMu]
	array        *core.Array // live engine, owned by the current primary
	primaryAlive bool
	active       Role    // which role currently owns the array
	fenced       [2]bool // roles demoted by a failover; requests refused
	warmList     []core.WarmKey
	failovers    int

	// Wall-clock heartbeat state, written by the active server's beater and
	// read by the peer's failover monitor (see server.StartBeat/StartMonitor).
	hbMu     lockrank.Mutex[lockrank.ControllerPairHbMu]
	lastBeat [2]time.Time

	sessions *Sessions
}

// NewPair formats a fresh array and brings up both controllers.
func NewPair(cfg Config, arrayCfg core.Config) (*Pair, error) {
	a, err := core.Format(arrayCfg)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	return &Pair{
		cfg:          cfg,
		arrayCfg:     arrayCfg,
		shelf:        a.Shelf(),
		array:        a,
		primaryAlive: true,
		active:       Primary,
		lastBeat:     [2]time.Time{now, now},
		sessions:     NewSessions(0),
	}, nil
}

// Sessions exposes the array-wide client session table. It is shared by
// both controllers' servers and survives failover — the simulation stand-in
// for session state riding the dual-ported NVRAM.
func (p *Pair) Sessions() *Sessions { return p.sessions }

// Active reports which role currently owns the array.
func (p *Pair) Active() Role {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.active
}

// Fenced reports whether a role has been demoted by a failover.
func (p *Pair) Fenced(via Role) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.fenced[via]
}

// Beat records a wall-clock heartbeat from a controller's server.
func (p *Pair) Beat(via Role) {
	p.hbMu.Lock()
	p.lastBeat[via] = time.Now()
	p.hbMu.Unlock()
}

// SinceBeat reports the wall-clock time since a controller last beat.
func (p *Pair) SinceBeat(via Role) time.Duration {
	p.hbMu.Lock()
	defer p.hbMu.Unlock()
	return time.Since(p.lastBeat[via])
}

// Array exposes the live engine (nil while failed over but not recovered).
func (p *Pair) Array() *core.Array {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.primaryAlive {
		return nil
	}
	return p.array
}

// Engine resolves the live engine for a request arriving via a role,
// honouring fencing — the server's dispatch view (Array is the
// maintenance/experiment view and ignores fencing).
func (p *Pair) Engine(via Role) (*core.Array, error) {
	a, _, err := p.live(via)
	return a, err
}

// Failovers reports how many failovers have completed.
func (p *Pair) Failovers() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.failovers
}

// forwardCost returns the latency tax of the chosen entry point: requests
// through the non-active controller cross the interconnect twice (§4.1; as
// a side effect, latencies improve slightly when the secondary fails).
// Caller holds mu (read side suffices).
func (p *Pair) forwardCostLocked(via Role) sim.Time {
	if via != p.active {
		return 2 * p.cfg.InterconnectHop
	}
	return 0
}

// live resolves the engine for a request arriving via a role: fenced roles
// are refused (ErrNotActive), a dead engine is ErrUnavailable, and the
// forwarding cost for the chosen entry point rides along.
func (p *Pair) live(via Role) (*core.Array, sim.Time, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.fenced[via] {
		return nil, 0, ErrNotActive
	}
	if !p.primaryAlive || p.array == nil {
		return nil, 0, ErrUnavailable
	}
	return p.array, p.forwardCostLocked(via), nil
}

// WriteAt serves a client write arriving at the given controller. Many
// connection goroutines call this at once; each runs its write's CPU stages
// itself, so concurrent writes use every core.
func (p *Pair) WriteAt(at sim.Time, via Role, vol core.VolumeID, off int64, data []byte) (sim.Time, error) {
	a, fwd, err := p.live(via)
	if err != nil {
		return at, err
	}
	done, err := a.WriteAt(at+fwd/2, vol, off, data)
	return done + fwd/2, err
}

// ReadAt serves a client read arriving at the given controller.
func (p *Pair) ReadAt(at sim.Time, via Role, vol core.VolumeID, off int64, n int) ([]byte, sim.Time, error) {
	a, fwd, err := p.live(via)
	if err != nil {
		return nil, at, err
	}
	data, done, err := a.ReadAt(at+fwd/2, vol, off, n)
	return data, done + fwd/2, err
}

// WarmSecondary ships the primary's hot-cache index to the secondary. The
// paper does this continuously in the background; experiments call it at
// convenient points.
func (p *Pair) WarmSecondary() int {
	a, _, err := p.live(p.Active())
	if err != nil {
		return 0
	}
	keys := a.CacheWarmKeys()
	p.mu.Lock()
	p.warmList = keys
	p.mu.Unlock()
	return len(keys)
}

// KillPrimary models a controller failure: the engine's in-memory state is
// gone. The shelf (SSDs and NVRAM) is dual-ported and survives.
func (p *Pair) KillPrimary() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.array = nil
	p.primaryAlive = false
}

// FailoverReport describes one failover.
type FailoverReport struct {
	Detection sim.Time // heartbeat loss declaration
	Recovery  core.RecoveryStats
	Warmed    int      // cblocks pre-loaded from the warm list
	WarmTime  sim.Time // spent warming, off the critical path
	Total     sim.Time // detection + recovery (client-visible unavailability)
}

// Failover runs the secondary's takeover: detection timeout, then engine
// recovery from the shared shelf. It returns the client-visible
// unavailability, which the paper keeps well under the 30 s I/O timeout.
func (p *Pair) Failover(at sim.Time) (FailoverReport, sim.Time, error) {
	return p.FailoverTo(Secondary, at)
}

// FailoverTo runs a takeover by the named surviving role: detection
// timeout, engine recovery from the shared shelf, then ownership transfer —
// the survivor becomes active and the dead role is fenced, so a half-dead
// former primary that limps back answers ErrNotActive instead of serving
// stale state.
func (p *Pair) FailoverTo(to Role, at sim.Time) (FailoverReport, sim.Time, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.primaryAlive {
		return FailoverReport{}, at, errors.New("controller: primary still alive")
	}
	rep := FailoverReport{Detection: p.cfg.DetectionTimeout}
	recoverAt := at + p.cfg.DetectionTimeout
	a, rs, err := core.OpenAt(p.arrayCfg, p.shelf, recoverAt, false)
	if err != nil {
		return rep, recoverAt, err
	}
	rep.Recovery = rs
	rep.Total = rep.Detection + rs.TotalTime
	done := recoverAt + rs.TotalTime

	p.array = a
	p.primaryAlive = true
	for r := range p.fenced {
		p.fenced[r] = Role(r) != to
	}
	p.active = to
	p.failovers++

	if p.cfg.WarmCache && len(p.warmList) > 0 {
		warmDone := a.WarmCBlocks(done, p.warmList)
		rep.Warmed = len(p.warmList)
		rep.WarmTime = warmDone - done
		p.warmList = nil
	}
	return rep, done, nil
}
