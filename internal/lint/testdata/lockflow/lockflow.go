// Package fixflow is a purity-lint fixture for the lockflow rule: every
// // want comment marks a line where the path-sensitive lock analysis
// must report, and the //lint:ignore below proves suppression works. The
// package is loaded only by lint_test.go.
package fixflow

import (
	"errors"
	"sync"

	"purity/internal/ssd"
)

var errBoom = errors.New("boom")

type guarded struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// EarlyReturn forgets the unlock on the error path — the seeded
// early-return unlock gap from the issue.
func (g *guarded) EarlyReturn(fail bool) error {
	g.mu.Lock()
	if fail {
		return errBoom // want "still held"
	}
	g.mu.Unlock()
	return nil
}

// DeferIsFine releases on every path through the deferred unlock.
func (g *guarded) DeferIsFine(fail bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fail {
		return errBoom
	}
	g.n++
	return nil
}

// BothPathsUnlock is clean: each branch releases before returning.
func (g *guarded) BothPathsUnlock(fail bool) error {
	g.mu.Lock()
	if fail {
		g.mu.Unlock()
		return errBoom
	}
	g.n++
	g.mu.Unlock()
	return nil
}

// TryThenLock takes mu by TryLock or, failing that, by Lock: held on both
// paths, so the single straight-line unlock is clean.
func (g *guarded) TryThenLock() {
	if !g.mu.TryLock() {
		g.n++
		g.mu.Lock()
	}
	g.n++
	g.mu.Unlock()
}

// TryThenLockLeaks is the same acquisition with the unlock forgotten.
func (g *guarded) TryThenLockLeaks() {
	if !g.mu.TryLock() {
		g.mu.Lock()
	}
	g.n++
	return // want "still held"
}

// DoubleLock re-acquires a mutex this path already write-holds.
func (g *guarded) DoubleLock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mu.Lock() // want "already write-locked"
	g.n++
}

// DoubleUnlock releases twice on the same path.
func (g *guarded) DoubleUnlock() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	g.mu.Unlock() // want "not held on this path"
}

// DeferredDoubleUnlock registers a deferred unlock and then also releases
// explicitly, so the defer fires on a free mutex.
func (g *guarded) DeferredDoubleUnlock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	g.mu.Unlock()
	// fall off the end
} // want "double unlock"

// UpgradeDeadlock tries to upgrade a read lock in place.
func (g *guarded) UpgradeDeadlock() {
	g.rw.RLock()
	g.rw.Lock() // want "lock upgrade deadlocks"
	g.rw.Unlock()
}

// WrongUnlockMode releases a read lock with the writer's Unlock.
func (g *guarded) WrongUnlockMode() {
	g.rw.RLock()
	g.n = 1
	g.rw.Unlock() // want "use RUnlock"
}

// FlushUnderLock issues flash I/O while holding the write lock — the
// latency invariant the prepare/commit split exists to protect.
func (g *guarded) FlushUnderLock(d *ssd.Device, buf []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, _ = d.WriteAt(0, buf, 0) // want "durable I/O"
}

// PanicPathIsExempt: the panic exit owes no unlock (the process is going
// down); the normal path releases via defer.
func (g *guarded) PanicPathIsExempt(bad bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if bad {
		panic("invariant violated")
	}
	g.n++
}

// LoopRelock is clean: each iteration pairs Lock with Unlock, so the back
// edge carries a free mutex into the next acquisition.
func (g *guarded) LoopRelock(rounds int) {
	for i := 0; i < rounds; i++ {
		g.mu.Lock()
		g.n++
		g.mu.Unlock()
	}
}

// Suppressed documents why the leak is intentional.
func (g *guarded) Suppressed(fail bool) error {
	g.mu.Lock()
	if fail {
		//lint:ignore lockflow fixture: lock ownership is handed to the caller on this path
		return errBoom
	}
	g.mu.Unlock()
	return nil
}

// --- Sharded-commit lane patterns: an engine mutex ordered before a
// per-lane mutex, a shared world lock held across a commit, and the
// group-commit rule that devices are written with no lock held.

// lane mimics one commit lane: its own mutex guarding an open-writer
// slot, always acquired after the engine lock, never before it.
type lane struct {
	mu   sync.Mutex
	open int
}

type engine struct {
	mu    sync.Mutex
	world sync.RWMutex
}

// LaneChainClean nests engine → lane and releases in reverse order.
func (e *engine) LaneChainClean(ln *lane) {
	e.mu.Lock()
	ln.mu.Lock()
	ln.open++
	ln.mu.Unlock()
	e.mu.Unlock()
}

// LaneLeak releases the engine lock by defer but forgets the inner lane
// mutex on the error path — the two-mutex variant of EarlyReturn.
func (e *engine) LaneLeak(ln *lane, fail bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ln.mu.Lock()
	if fail {
		return errBoom // want "still held"
	}
	ln.mu.Unlock()
	return nil
}

// WorldRLockLeak holds the shared world lock across an early return —
// the commit-path shape where only the happy path reaches RUnlock.
func (e *engine) WorldRLockLeak(fail bool) error {
	e.world.RLock()
	if fail {
		return errBoom // want "still held"
	}
	e.world.RUnlock()
	return nil
}

// LaneDurable issues flash I/O with the lane mutex held: group commit
// exists precisely so the device write happens with no lock at all.
func (ln *lane) LaneDurable(d *ssd.Device, buf []byte) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	_, _ = d.WriteAt(0, buf, 0) // want "durable I/O"
}

// LaneBatchClean is the group-commit shape the rule must accept:
// snapshot the batch under the lane mutex, release, then touch flash.
func (ln *lane) LaneBatchClean(d *ssd.Device, buf []byte) {
	ln.mu.Lock()
	n := ln.open
	ln.mu.Unlock()
	if n > 0 {
		_, _ = d.WriteAt(0, buf, 0)
	}
}
