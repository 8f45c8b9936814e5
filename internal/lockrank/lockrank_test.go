package lockrank

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// Test classes, ranked below one another in declaration order.
type (
	testOuter struct{}
	testInner struct{}
)

func (testOuter) rank() lockRank { return 1 }
func (testInner) rank() lockRank { return 2 }

func requireCheck(t *testing.T) {
	t.Helper()
	if !checking {
		t.Skipf("the lock-order check needs a goroutine-identity stub, which %s lacks", runtime.GOARCH)
	}
}

// nextLine returns the line after its call: the line of the lock call a
// test makes next.
func nextLine() string {
	_, file, line, _ := runtime.Caller(1)
	return fmt.Sprintf("%s:%d", file, line+1)
}

// panicOf runs fn and returns what it panicked with, or "" if it did not.
func panicOf(fn func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	fn()
	return ""
}

// TestInversionReport plants an inversion and checks the report names both
// classes, both acquisition sites and the current stack.
func TestInversionReport(t *testing.T) {
	requireCheck(t)
	var outer Mutex[testOuter]
	var inner Mutex[testInner]
	innerAt := nextLine()
	inner.Lock()
	defer inner.Unlock()
	var outerAt string
	msg := panicOf(func() {
		outerAt = nextLine()
		outer.Lock()
	})
	for _, want := range []string{"lockrank.testOuter (rank 1)", "lockrank.testInner (rank 2)", innerAt, outerAt, "goroutine ", "TestInversionReport"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q:\n%s", want, msg)
		}
	}
	// The refused lock was neither taken nor recorded: the right order works.
	inner.Unlock()
	outer.Lock()
	inner.Lock()
	outer.Unlock()
}

// TestReadReadInversion: read locks are ranked like write locks, since a
// waiting writer makes RLock block.
func TestReadReadInversion(t *testing.T) {
	requireCheck(t)
	var outer RWMutex[testOuter]
	var inner RWMutex[testInner]
	inner.RLock()
	defer inner.RUnlock()
	if msg := panicOf(outer.RLock); !strings.Contains(msg, "lockrank.testOuter") {
		t.Fatalf("RLock of a lower rank under a read hold: panic %q, want an inversion report", msg)
	}
}

// TestSameClassNesting: two locks of one class cannot be ranked against
// each other, so holding one while blocking on the other is refused.
func TestSameClassNesting(t *testing.T) {
	requireCheck(t)
	var a, b Mutex[testInner]
	a.Lock()
	defer a.Unlock()
	if msg := panicOf(b.Lock); !strings.Contains(msg, "lockrank.testInner (rank 2) acquired") {
		t.Fatalf("second lock of one class: panic %q, want an inversion report", msg)
	}
}

// TestTryExemptButHeld: TryLock and TryRLock skip the order check, but what
// they take is held: blocking on a lower rank under it is refused.
func TestTryExemptButHeld(t *testing.T) {
	requireCheck(t)
	var outer Mutex[testOuter]
	var inner RWMutex[testInner]
	var outer2 Mutex[testOuter]
	inner.Lock()
	if !outer.TryLock() {
		t.Fatal("TryLock of a free mutex failed")
	}
	inner.Unlock()
	if msg := panicOf(outer2.Lock); msg == "" {
		t.Fatal("a TryLock'd mutex did not join the held set")
	}
	outer.Unlock()

	outer.Lock()
	if !inner.TryRLock() {
		t.Fatal("TryRLock of a free RWMutex failed")
	}
	if msg := panicOf(outer2.Lock); msg == "" {
		t.Fatal("a TryRLock'd mutex did not join the held set")
	}
	inner.RUnlock()
	outer.Unlock()
}

// TestHeldExclusive: only a write hold by the calling goroutine counts.
func TestHeldExclusive(t *testing.T) {
	requireCheck(t)
	var rw RWMutex[testOuter]
	if rw.HeldExclusive() {
		t.Fatal("free RWMutex reported held")
	}
	rw.RLock()
	if rw.HeldExclusive() {
		t.Fatal("read hold reported exclusive")
	}
	rw.RUnlock()
	rw.Lock()
	if !rw.HeldExclusive() {
		t.Fatal("write hold not reported")
	}
	done := make(chan bool)
	go func() { done <- rw.HeldExclusive() }()
	if <-done {
		t.Fatal("another goroutine's write hold reported as the caller's")
	}
	rw.Unlock()
}

// TestDropHeldAfterRecoveredCrash: a panic that unwinds past a lock leaves
// it held; once the recovering goroutine drops its held set, a lower rank
// may be taken again.
func TestDropHeldAfterRecoveredCrash(t *testing.T) {
	requireCheck(t)
	var outer Mutex[testOuter]
	var inner Mutex[testInner]
	func() {
		defer func() { _ = recover() }()
		inner.Lock()
		panic("simulated crash")
	}()
	if msg := panicOf(outer.Lock); msg == "" {
		t.Fatal("a lock left held by a crash did not stay in the held set")
	}
	DropHeld()
	outer.Lock()
	outer.Unlock()
}

// TestNoAllocsWhenWarm: once a goroutine's held set exists, locking
// allocates nothing.
func TestNoAllocsWhenWarm(t *testing.T) {
	requireCheck(t)
	var outer Mutex[testOuter]
	var inner RWMutex[testInner]
	allocs := testing.AllocsPerRun(100, func() {
		outer.Lock()
		inner.RLock()
		inner.RUnlock()
		if inner.TryLock() {
			inner.Unlock()
		}
		outer.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run, want 0", allocs)
	}
}

// BenchmarkLockUnlock measures one checked Lock and Unlock.
func BenchmarkLockUnlock(b *testing.B) {
	var m Mutex[testOuter]
	for range b.N {
		m.Lock()
		m.Unlock()
	}
}
