package controller

import (
	"errors"
	"sync"
	"testing"
	"time"

	"purity/internal/telemetry"
)

func TestSessionOpenResume(t *testing.T) {
	tab := NewSessions(0)
	a := tab.Open()
	b := tab.Open()
	if a.ID == b.ID {
		t.Fatal("duplicate session IDs")
	}
	if got := tab.Resume(a.ID); got != a {
		t.Fatal("resume returned a different session")
	}
	if tab.Resumed.Load() != 1 || tab.Opened.Load() != 2 {
		t.Fatalf("opened=%d resumed=%d", tab.Opened.Load(), tab.Resumed.Load())
	}
	// Resuming an unknown ID recreates it under the same ID (idempotent
	// resume), and future Opens never collide with it.
	ghost := tab.Resume(99)
	if ghost.ID != 99 {
		t.Fatalf("ghost resumed as %d", ghost.ID)
	}
	if next := tab.Open(); next.ID <= 99 {
		t.Fatalf("Open() reused ID space: %d", next.ID)
	}
	// Resume(0) is a plain open.
	if s := tab.Resume(0); s.ID == 0 {
		t.Fatal("Resume(0) did not allocate")
	}
}

func TestSessionReplaySuppressed(t *testing.T) {
	tab := NewSessions(0)
	s := tab.Open()
	applies := 0
	apply := func() error { applies++; return nil }
	always := func(error) bool { return true }

	if err, replayed := s.Do(1, apply, always); err != nil || replayed {
		t.Fatalf("first apply: err=%v replayed=%v", err, replayed)
	}
	// The replay must not re-apply.
	if err, replayed := s.Do(1, apply, always); err != nil || !replayed {
		t.Fatalf("replay: err=%v replayed=%v", err, replayed)
	}
	if applies != 1 {
		t.Fatalf("applied %d times", applies)
	}
	if tab.ReplaysSuppressed.Load() != 1 || tab.AppliedOK.Load() != 1 {
		t.Fatalf("suppressed=%d appliedOK=%d", tab.ReplaysSuppressed.Load(), tab.AppliedOK.Load())
	}
}

func TestSessionRecordsDefinitiveErrors(t *testing.T) {
	tab := NewSessions(0)
	s := tab.Open()
	boom := errors.New("no such volume")
	applies := 0
	apply := func() error { applies++; return boom }
	always := func(error) bool { return true }
	if err, _ := s.Do(5, apply, always); !errors.Is(err, boom) {
		t.Fatalf("first: %v", err)
	}
	// The recorded *error* outcome replays too: same answer, no re-apply.
	err, replayed := s.Do(5, apply, always)
	if !errors.Is(err, boom) || !replayed {
		t.Fatalf("replay: err=%v replayed=%v", err, replayed)
	}
	if applies != 1 {
		t.Fatalf("applied %d times", applies)
	}
}

func TestSessionNonDefinitiveOutcomeRetries(t *testing.T) {
	tab := NewSessions(0)
	s := tab.Open()
	attempts := 0
	apply := func() error {
		attempts++
		if attempts == 1 {
			return ErrUnavailable // mid-failover: NOT applied
		}
		return nil
	}
	definitive := func(err error) bool { return !errors.Is(err, ErrUnavailable) }
	if err, _ := s.Do(7, apply, definitive); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("first: %v", err)
	}
	// The failure wasn't recorded, so the replay applies for real.
	if err, replayed := s.Do(7, apply, definitive); err != nil || replayed {
		t.Fatalf("retry: err=%v replayed=%v", err, replayed)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d", attempts)
	}
	if tab.ReplaysSuppressed.Load() != 0 {
		t.Fatal("retry of an unapplied op counted as suppression")
	}
}

// A replay racing its own original blocks until the original completes and
// then returns the recorded outcome — the exact dying-controller race: the
// original is queued on the old primary while the client resends to the
// survivor.
func TestSessionConcurrentReplayWaits(t *testing.T) {
	tab := NewSessions(0)
	s := tab.Open()
	gate := make(chan struct{})
	applies := 0
	started := make(chan struct{})
	always := func(error) bool { return true }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.Do(3, func() error {
			applies++
			close(started)
			<-gate
			return nil
		}, always)
	}()
	<-started
	done := make(chan bool, 1)
	go func() {
		_, replayed := s.Do(3, func() error { applies++; return nil }, always)
		done <- replayed
	}()
	// The replay must park (counted at the wait), not apply.
	deadline := time.Now().Add(5 * time.Second)
	for tab.ReplayWaits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replay never parked behind the in-flight original")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("replay completed while original was in flight")
	default:
	}
	close(gate)
	if replayed := <-done; !replayed {
		t.Fatal("waited replay not answered from the window")
	}
	wg.Wait()
	if applies != 1 {
		t.Fatalf("applied %d times", applies)
	}
	if tab.ReplayWaits.Load() != 1 {
		t.Fatalf("ReplayWaits = %d", tab.ReplayWaits.Load())
	}
}

func TestSessionWindowEviction(t *testing.T) {
	tab := NewSessions(8)
	s := tab.Open()
	always := func(error) bool { return true }
	for seq := uint64(1); seq <= 32; seq++ {
		if err, _ := s.Do(seq, func() error { return nil }, always); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.WindowSize(); n > 8 {
		t.Fatalf("window retains %d entries, cap 8", n)
	}
	// A replay inside the window still answers.
	if err, replayed := s.Do(32, func() error { return nil }, always); err != nil || !replayed {
		t.Fatalf("in-window replay: %v %v", err, replayed)
	}
	// A replay older than the window is refused, never re-applied.
	err, _ := s.Do(2, func() error { t.Fatal("evicted seq re-applied"); return nil }, always)
	if !errors.Is(err, ErrIdemEvicted) {
		t.Fatalf("evicted replay: %v", err)
	}
	if tab.Overflows.Load() != 1 {
		t.Fatalf("Overflows = %d", tab.Overflows.Load())
	}
}

// Hammer one session from many goroutines with overlapping seqs: exactly
// one apply per seq must win. Run under -race in check.sh.
func TestSessionConcurrentExactlyOnce(t *testing.T) {
	tab := NewSessions(0)
	s := tab.Open()
	const seqs = 64
	const dup = 4
	var mu sync.Mutex
	applied := make(map[uint64]int)
	always := func(error) bool { return true }
	var wg sync.WaitGroup
	for seq := uint64(1); seq <= seqs; seq++ {
		for d := 0; d < dup; d++ {
			wg.Add(1)
			go func(seq uint64) {
				defer wg.Done()
				_, _ = s.Do(seq, func() error {
					mu.Lock()
					applied[seq]++
					mu.Unlock()
					return nil
				}, always)
			}(seq)
		}
	}
	wg.Wait()
	for seq, n := range applied {
		if n != 1 {
			t.Fatalf("seq %d applied %d times", seq, n)
		}
	}
	if len(applied) != seqs {
		t.Fatalf("%d seqs applied, want %d", len(applied), seqs)
	}
	want := int64(seqs * (dup - 1))
	if got := tab.ReplaysSuppressed.Load() + tab.ReplayWaits.Load(); got < want {
		t.Fatalf("suppressed+waited = %d, want >= %d", got, want)
	}
	if telemetry.Render(tab) == "" { // rendering must not race under -race
		t.Fatal("empty summary")
	}
}
