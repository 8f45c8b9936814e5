package crashpoint

import (
	"testing"

	"purity/internal/lockrank"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Hit("x") // must not panic
	r.Arm("x", 1)
	r.Hit("x") // still inert
	if _, fired := r.Fired(); fired {
		t.Fatal("nil registry fired")
	}
	if r.Counts() != nil || r.Points() != nil {
		t.Fatal("nil registry has state")
	}
}

func TestCountsWithoutArming(t *testing.T) {
	r := New()
	for i := 0; i < 3; i++ {
		r.Hit("a")
	}
	r.Hit("b")
	c := r.Counts()
	if c["a"] != 3 || c["b"] != 1 {
		t.Fatalf("counts = %v", c)
	}
	pts := r.Points()
	if len(pts) != 2 || pts[0] != "a" || pts[1] != "b" {
		t.Fatalf("points = %v", pts)
	}
}

func TestArmedPointFiresOnExactHit(t *testing.T) {
	r := New()
	r.Arm("p", 3)
	r.Hit("p")
	r.Hit("p")
	fired := func() (c Crash, ok bool) {
		defer func() { c, ok = AsCrash(recover()) }()
		r.Hit("p")
		return
	}
	c, ok := fired()
	if !ok || c.Point != "p" || c.Hit != 3 {
		t.Fatalf("crash = %+v ok=%v", c, ok)
	}
	// The fired latch suppresses further firing, even at the same count
	// after a reset, until re-armed.
	r.Hit("p")
	if got, ok := r.Fired(); !ok || got != c {
		t.Fatalf("Fired() = %+v, %v", got, ok)
	}
}

func TestResetCountsGivesFreshCensus(t *testing.T) {
	r := New()
	r.Hit("a")
	r.ResetCounts()
	if len(r.Counts()) != 0 {
		t.Fatal("counts survived reset")
	}
	r.Arm("a", 1)
	defer func() {
		if _, ok := AsCrash(recover()); !ok {
			t.Fatal("armed hit 1 after reset did not fire")
		}
	}()
	r.Hit("a")
}

// TestAsCrashDropsHeldLocks: a crash unwinds past locks it leaves held on
// purpose. Recognising the crash drops them from the recovering
// goroutine's held set, so its next lock — the next array's first, ranked
// below them — is not reported as an inversion.
func TestAsCrashDropsHeldLocks(t *testing.T) {
	var dev lockrank.Mutex[lockrank.SsdDeviceMu]
	var world lockrank.RWMutex[lockrank.CoreArrayWorld]
	func() {
		defer func() {
			if _, ok := AsCrash(recover()); !ok {
				t.Fatal("the crash was not recognised")
			}
		}()
		dev.Lock()
		panic(Crash{Point: "p", Hit: 1})
	}()
	world.Lock()
	world.Unlock()
}
