// Package lockrank checks lock order where locks are taken. The paper's
// availability argument (§4.3) needs a controller that cannot deadlock; this
// module's half of that is a total order over its lock classes, the rank
// table below, which every acquisition is held to.
//
// Every mutex in the module is a Mutex or RWMutex of this package, and its
// type names its class: a field declared
//
//	world lockrank.RWMutex[lockrank.CoreArrayWorld]
//
// is the lock class core.Array.world. The shape is the Go runtime's
// lockrank.go: in a test binary (testing.Testing) each acquisition panics
// unless its class ranks above every lock the calling goroutine already
// holds, so a nesting that runs against the table fails the test that runs
// it, at the acquisition, naming both classes, the held lock's acquisition
// site and the current stack. A read acquisition is ranked like a write:
// Go's RWMutex blocks new readers while a writer waits, so two goroutines
// taking read locks in opposite orders can deadlock beside a writer.
// TryLock and TryRLock never block, so they skip the order check, but the
// lock they take joins the held set.
//
// Outside test binaries the check is off and a lock pays one predictable
// branch, and one call: with the check's call in it, a wrapper is too large
// for the inliner (about 2.5 ns a Lock and Unlock pair on a 2-vCPU amd64
// host). The check needs the running goroutine's identity, which only the
// amd64 stub reads (getg_amd64.go); on other architectures it is off in
// tests too.
package lockrank

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// lockRank orders lock classes: a goroutine may block on a lock only while
// every lock it holds ranks below it.
type lockRank uint8

// The rank table, outermost first: a topological order of every "taken
// while holding" edge the module has, front end over engine over devices.
// Classes with nothing ever taken under them sit after every class that is
// taken over them; their order among themselves is arbitrary.
const (
	rankPurityArrayMu lockRank = iota
	rankControllerPairMu
	rankControllerPairHbMu
	rankControllerSessionsMu
	rankControllerSessionMu
	rankClientHAClientMu
	rankClientClientWmu
	rankClientClientPmu
	rankServerServerMu
	rankServerByteBudgetMu
	rankServerBodyPoolMu
	rankServerPconnTagMu
	rankWireConnMu
	rankChaosInjectorMu
	rankChaosConnMu
	rankChaosConnDmu

	rankCoreArrayWorld
	rankCoreArrayMu
	rankCoreArraySegMu
	rankCoreOpenSegMu
	rankCoreArrayNvAppendMu
	rankCoreArrayRdMu
	rankCoreArrayLostMu

	rankPyramidPyramidMu
	rankPyramidMemStoreMu
	rankPyramidPageCacheMu
	rankElideTableMu
	rankDedupRecentStripeMu
	rankLayoutAllocatorMu
	rankLayoutReaderMu
	rankIoschedTrackerMu
	rankTelemetryHistogramMu
	rankShelfShelfMu
	rankNvramDeviceMu
	rankSsdDeviceMu
	rankCrashpointRegistryMu
)

// class is a lock class: an empty type whose one method returns its rank,
// and whose name (lockrank.CoreArrayWorld) reports print. Only this
// package's types satisfy it, so the table above is the whole order.
type class interface{ rank() lockRank }

// The lock classes, one type each, in the rank table's order.
type (
	PurityArrayMu        struct{}
	ControllerPairMu     struct{}
	ControllerPairHbMu   struct{}
	ControllerSessionsMu struct{}
	ControllerSessionMu  struct{}
	ClientHAClientMu     struct{}
	ClientClientWmu      struct{}
	ClientClientPmu      struct{}
	ServerServerMu       struct{}
	ServerByteBudgetMu   struct{}
	ServerBodyPoolMu     struct{}
	ServerPconnTagMu     struct{}
	WireConnMu           struct{}
	ChaosInjectorMu      struct{}
	ChaosConnMu          struct{}
	ChaosConnDmu         struct{}
	CoreArrayWorld       struct{}
	CoreArrayMu          struct{}
	CoreArraySegMu       struct{}
	CoreOpenSegMu        struct{}
	CoreArrayNvAppendMu  struct{}
	CoreArrayRdMu        struct{}
	CoreArrayLostMu      struct{}
	PyramidPyramidMu     struct{}
	PyramidMemStoreMu    struct{}
	PyramidPageCacheMu   struct{}
	ElideTableMu         struct{}
	DedupRecentStripeMu  struct{}
	LayoutAllocatorMu    struct{}
	LayoutReaderMu       struct{}
	IoschedTrackerMu     struct{}
	TelemetryHistogramMu struct{}
	ShelfShelfMu         struct{}
	NvramDeviceMu        struct{}
	SsdDeviceMu          struct{}
	CrashpointRegistryMu struct{}
)

func (PurityArrayMu) rank() lockRank        { return rankPurityArrayMu }
func (ControllerPairMu) rank() lockRank     { return rankControllerPairMu }
func (ControllerPairHbMu) rank() lockRank   { return rankControllerPairHbMu }
func (ControllerSessionsMu) rank() lockRank { return rankControllerSessionsMu }
func (ControllerSessionMu) rank() lockRank  { return rankControllerSessionMu }
func (ClientHAClientMu) rank() lockRank     { return rankClientHAClientMu }
func (ClientClientWmu) rank() lockRank      { return rankClientClientWmu }
func (ClientClientPmu) rank() lockRank      { return rankClientClientPmu }
func (ServerServerMu) rank() lockRank       { return rankServerServerMu }
func (ServerPconnTagMu) rank() lockRank     { return rankServerPconnTagMu }
func (ServerBodyPoolMu) rank() lockRank     { return rankServerBodyPoolMu }
func (ServerByteBudgetMu) rank() lockRank   { return rankServerByteBudgetMu }
func (ChaosInjectorMu) rank() lockRank      { return rankChaosInjectorMu }
func (ChaosConnMu) rank() lockRank          { return rankChaosConnMu }
func (ChaosConnDmu) rank() lockRank         { return rankChaosConnDmu }
func (WireConnMu) rank() lockRank           { return rankWireConnMu }
func (CoreArrayWorld) rank() lockRank       { return rankCoreArrayWorld }
func (CoreArrayMu) rank() lockRank          { return rankCoreArrayMu }
func (CoreArraySegMu) rank() lockRank       { return rankCoreArraySegMu }
func (CoreOpenSegMu) rank() lockRank        { return rankCoreOpenSegMu }
func (CoreArrayNvAppendMu) rank() lockRank  { return rankCoreArrayNvAppendMu }
func (CoreArrayRdMu) rank() lockRank        { return rankCoreArrayRdMu }
func (CoreArrayLostMu) rank() lockRank      { return rankCoreArrayLostMu }
func (PyramidPyramidMu) rank() lockRank     { return rankPyramidPyramidMu }
func (PyramidMemStoreMu) rank() lockRank    { return rankPyramidMemStoreMu }
func (PyramidPageCacheMu) rank() lockRank   { return rankPyramidPageCacheMu }
func (ElideTableMu) rank() lockRank         { return rankElideTableMu }
func (DedupRecentStripeMu) rank() lockRank  { return rankDedupRecentStripeMu }
func (LayoutAllocatorMu) rank() lockRank    { return rankLayoutAllocatorMu }
func (LayoutReaderMu) rank() lockRank       { return rankLayoutReaderMu }
func (IoschedTrackerMu) rank() lockRank     { return rankIoschedTrackerMu }
func (TelemetryHistogramMu) rank() lockRank { return rankTelemetryHistogramMu }
func (ShelfShelfMu) rank() lockRank         { return rankShelfShelfMu }
func (NvramDeviceMu) rank() lockRank        { return rankNvramDeviceMu }
func (SsdDeviceMu) rank() lockRank          { return rankSsdDeviceMu }
func (CrashpointRegistryMu) rank() lockRank { return rankCrashpointRegistryMu }

// Mutex is a sync.Mutex of lock class C. The zero value is unlocked.
type Mutex[C class] struct{ mu sync.Mutex }

// Lock locks m, first checking it against the caller's held locks.
func (m *Mutex[C]) Lock() {
	if checking {
		acquire[C](unsafe.Pointer(m), false, true)
	}
	m.mu.Lock()
	//lint:ignore lockflow returning with the lock held is this wrapper's contract; lockflow pairs the lock with its unlock in the caller's body, which calls this method
}

// TryLock tries to lock m and reports whether it did. It cannot block, so
// it is not order-checked; a lock it takes joins the held set.
func (m *Mutex[C]) TryLock() bool {
	if !m.mu.TryLock() {
		return false
	}
	if checking {
		acquire[C](unsafe.Pointer(m), false, false)
	}
	//lint:ignore lockflow returning with the lock held is this wrapper's contract; lockflow pairs the lock with its unlock in the caller's body, which calls this method
	return true
}

// Unlock unlocks m.
func (m *Mutex[C]) Unlock() {
	if checking {
		release(unsafe.Pointer(m), false)
	}
	m.mu.Unlock()
}

// RWMutex is a sync.RWMutex of lock class C. The zero value is unlocked.
// A read lock is ranked like a write lock (see the package comment).
type RWMutex[C class] struct{ mu sync.RWMutex }

// Lock locks rw for writing, first checking it against the caller's held
// locks.
func (rw *RWMutex[C]) Lock() {
	if checking {
		acquire[C](unsafe.Pointer(rw), false, true)
	}
	rw.mu.Lock()
	//lint:ignore lockflow returning with the lock held is this wrapper's contract; lockflow pairs the lock with its unlock in the caller's body, which calls this method
}

// TryLock tries to lock rw for writing and reports whether it did; like
// Mutex.TryLock it is not order-checked.
func (rw *RWMutex[C]) TryLock() bool {
	if !rw.mu.TryLock() {
		return false
	}
	if checking {
		acquire[C](unsafe.Pointer(rw), false, false)
	}
	//lint:ignore lockflow returning with the lock held is this wrapper's contract; lockflow pairs the lock with its unlock in the caller's body, which calls this method
	return true
}

// Unlock unlocks rw for writing.
func (rw *RWMutex[C]) Unlock() {
	if checking {
		release(unsafe.Pointer(rw), false)
	}
	rw.mu.Unlock()
}

// RLock locks rw for reading, first checking it against the caller's held
// locks.
func (rw *RWMutex[C]) RLock() {
	if checking {
		acquire[C](unsafe.Pointer(rw), true, true)
	}
	rw.mu.RLock()
	//lint:ignore lockflow returning with the lock held is this wrapper's contract; lockflow pairs the lock with its unlock in the caller's body, which calls this method
}

// TryRLock tries to lock rw for reading and reports whether it did; like
// Mutex.TryLock it is not order-checked.
func (rw *RWMutex[C]) TryRLock() bool {
	if !rw.mu.TryRLock() {
		return false
	}
	if checking {
		acquire[C](unsafe.Pointer(rw), true, false)
	}
	//lint:ignore lockflow returning with the lock held is this wrapper's contract; lockflow pairs the lock with its unlock in the caller's body, which calls this method
	return true
}

// RUnlock undoes one RLock or successful TryRLock.
func (rw *RWMutex[C]) RUnlock() {
	if checking {
		release(unsafe.Pointer(rw), true)
	}
	rw.mu.RUnlock()
}

// HeldExclusive reports whether the calling goroutine holds rw for
// writing. With the check off it cannot tell and reports true, so it only
// serves to assert.
func (rw *RWMutex[C]) HeldExclusive() bool {
	if !checking {
		return true
	}
	st := current()
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, h := range st.held {
		if h.lock == unsafe.Pointer(rw) && !h.read {
			return true
		}
	}
	return false
}

// DropHeld forgets every lock the calling goroutine holds. A simulated
// crash (crashpoint) unwinds past locks it leaves held on purpose; the
// goroutine that recovers it goes on to a new array, whose locks must not
// be ranked against the dead one's.
func DropHeld() {
	if !checking {
		return
	}
	st := current()
	st.mu.Lock()
	clear(st.held)
	st.held = st.held[:0]
	st.mu.Unlock()
}

// The amd64 stubs (getg_amd64.go) set getg and callerPCs; elsewhere they
// stay nil and the check is off.
var (
	// getg identifies the running goroutine by its runtime g: distinct
	// among live goroutines and stable while one runs, though a later
	// goroutine may reuse a dead one's.
	getg func() unsafe.Pointer
	// callerPCs, called from acquire, returns the return addresses of
	// acquire's caller and the frame above it: the lock method and its
	// caller, or, when the method was inlined, its caller and the next
	// frame up. A few loads off the frame-pointer chain, where
	// runtime.Callers would unwind (300 ns an acquisition on a 2-vCPU amd64
	// host).
	callerPCs func() [2]uintptr
)

// checking turns the check on. It is set once, by init, after every
// package-level variable (getg included) has its value.
var checking bool

func init() { checking = testing.Testing() && getg != nil }

// heldLock is one lock a goroutine holds.
type heldLock struct {
	lock  unsafe.Pointer
	class class
	read  bool
	pcs   [2]uintptr // where it was taken (callerPCs)
}

// goroutine is one goroutine's held set, reused by the goroutines that
// later run on the same g. Only the running goroutine touches it; mu
// orders one goroutine's last use before the next one's first, which the
// race detector cannot see through the runtime's g reuse.
type goroutine struct {
	mu   sync.Mutex
	held []heldLock
}

// goroutines maps a runtime g to its held set.
var goroutines sync.Map

func current() *goroutine {
	g := getg()
	if v, ok := goroutines.Load(g); ok {
		return v.(*goroutine)
	}
	st := &goroutine{held: make([]heldLock, 0, 8)}
	goroutines.Store(g, st)
	return st
}

// acquire records that the caller of a lock method takes lock, of class
// C, first checking, when ordered, that C ranks above everything the
// goroutine holds. It must stay a frame of its own for callerPCs.
//
//go:noinline
func acquire[C class](lock unsafe.Pointer, read, ordered bool) {
	var c C
	pcs := callerPCs()
	st := current()
	st.mu.Lock()
	if ordered {
		for _, h := range st.held {
			if h.class.rank() >= c.rank() {
				st.mu.Unlock()
				panic(inversion(h, c, pcs))
			}
		}
	}
	st.held = append(st.held, heldLock{lock: lock, class: c, read: read, pcs: pcs})
	st.mu.Unlock()
}

// release forgets the most recent hold of lock in the given mode. A lock
// the goroutine does not hold — a crash dropped it — is ignored.
func release(lock unsafe.Pointer, read bool) {
	st := current()
	st.mu.Lock()
	for i := len(st.held) - 1; i >= 0; i-- {
		if h := st.held[i]; h.lock == lock && h.read == read {
			n := copy(st.held[i:], st.held[i+1:])
			st.held[i+n] = heldLock{}
			st.held = st.held[:i+n]
			break
		}
	}
	st.mu.Unlock()
}

// inversion is the report of acquiring a lock of class c at pcs while
// holding h.
func inversion(h heldLock, c class, pcs [2]uintptr) string {
	return fmt.Sprintf("lockrank: %T (rank %d) acquired at %s while holding %T (rank %d), acquired at %s; "+
		"a lock may only be taken while every lock held ranks below it\n\n%s",
		c, c.rank(), site(pcs), h.class, h.class.rank(), site(h.pcs), debug.Stack())
}

// site names the function and line that called a lock method, from the
// two return addresses callerPCs recorded: the first, unless it returns
// into the lock method itself.
func site(pcs [2]uintptr) string {
	f, _ := runtime.CallersFrames(pcs[:1]).Next()
	if strings.Contains(f.Function, "lockrank.(*Mutex[") || strings.Contains(f.Function, "lockrank.(*RWMutex[") {
		f, _ = runtime.CallersFrames(pcs[1:]).Next()
	}
	return fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
}
