// Client sessions and the idempotent-replay window.
//
// An HA initiator negotiates a session at OpHello and stamps every write
// with a session-scoped sequence number. The session records the outcome of
// each completed write in a bounded window; when an ambiguous failure (a
// connection that died between request and ack) makes the client resend,
// the replay returns the recorded outcome instead of applying the write a
// second time. This is the paper's "failover is invisible to initiators"
// contract made concrete: at-most-once application with at-least-once
// delivery.
//
// The table lives on the controller Pair, not on either server: in the real
// array this state rides the NVRAM that both controllers share, which is
// exactly why a replay sent to the surviving controller after a failover
// still hits the window the dead controller populated. (The simulation
// keeps it in memory on the shared Pair; DESIGN.md discusses the
// durability boundary.)
package controller

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"purity/internal/telemetry"
)

// DefaultSessionWindow is how many completed ops a session retains. The
// invariant callers must respect: the window must comfortably exceed the
// client's maximum in-flight depth, since only un-acked (hence recent) ops
// are ever replayed.
const DefaultSessionWindow = 4096

// ErrIdemEvicted rejects a replay older than the session's retention
// window. A correct client can never trigger this (it only replays un-acked
// ops, and the window dwarfs any sane queue depth); seeing it means the
// at-most-once guarantee can no longer be vouched for, so the op is refused
// rather than risked.
var ErrIdemEvicted = errors.New("controller: idempotency window evicted this sequence")

// Sessions is the array-wide session table, shared by both controllers.
type Sessions struct {
	mu     sync.Mutex
	nextID uint64
	m      map[uint64]*Session
	window int

	// Counters for the HA story (purity-inspect -ha, E15 assertions).
	Opened            atomic.Int64 // sessions created
	Resumed           atomic.Int64 // hellos that re-attached to a live session
	ReplaysSuppressed atomic.Int64 // replayed writes answered from the window
	ReplayWaits       atomic.Int64 // replays that waited out an in-flight original
	AppliedOK         atomic.Int64 // definitive successful applies (once per seq)
	Overflows         atomic.Int64 // replays refused as older than the window (must stay 0)
}

// MarshalJSON renders the counters for the stats document (telemetry.Render).
func (t *Sessions) MarshalJSON() ([]byte, error) { return []byte(telemetry.Render(t)), nil }

// NewSessions returns an empty table retaining `window` completed ops per
// session (DefaultSessionWindow if <= 0).
func NewSessions(window int) *Sessions {
	if window <= 0 {
		window = DefaultSessionWindow
	}
	return &Sessions{m: make(map[uint64]*Session), window: window}
}

// Open allocates a fresh session.
func (t *Sessions) Open() *Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := newSession(t, t.nextID)
	t.m[s.ID] = s
	t.Opened.Add(1)
	return s
}

// Resume re-attaches to a session by ID; an unknown ID is recreated under
// the same ID (idempotent resume — reconnecting twice must not fork the
// client's identity).
func (t *Sessions) Resume(id uint64) *Session {
	if id == 0 {
		return t.Open()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[id]; ok {
		t.Resumed.Add(1)
		return s
	}
	if id > t.nextID {
		t.nextID = id
	}
	s := newSession(t, id)
	t.m[id] = s
	t.Opened.Add(1)
	return s
}

// Count returns the number of live sessions.
func (t *Sessions) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// Session is one initiator's identity: a window of completed write
// outcomes keyed by the client-assigned sequence number.
type Session struct {
	ID  uint64
	tab *Sessions

	mu      sync.Mutex
	results map[uint64]*opResult
	floor   uint64 // seqs <= floor have been evicted; replays there are refused
	maxSeq  uint64
}

func newSession(t *Sessions, id uint64) *Session {
	return &Session{ID: id, tab: t, results: make(map[uint64]*opResult)}
}

// opResult tracks one sequence number from first arrival to recorded
// outcome. done closes when the first arrival finishes; completed+err are
// only valid after that.
type opResult struct {
	done      chan struct{}
	completed bool
	err       error
}

// Do runs apply at most once for seq across every concurrent arrival and
// replay. The second return reports whether this call was answered from the
// window (a suppressed replay) rather than by applying.
//
// definitive classifies apply's outcome: a definitive outcome (success, or
// a real engine rejection) is recorded and replayed forever after; a
// non-definitive one (controller fenced or mid-failover — the op was NOT
// applied) is returned to its caller but deliberately not recorded, so a
// later replay gets to apply for real.
func (s *Session) Do(seq uint64, apply func() error, definitive func(error) bool) (error, bool) {
	s.mu.Lock()
	for {
		if seq <= s.floor {
			s.mu.Unlock()
			s.tab.Overflows.Add(1)
			return fmt.Errorf("%w: seq %d <= floor %d (session %d)", ErrIdemEvicted, seq, s.floor, s.ID), false
		}
		r, ok := s.results[seq]
		if !ok {
			break
		}
		if r.completed {
			s.mu.Unlock()
			s.tab.ReplaysSuppressed.Add(1)
			return r.err, true
		}
		// The original is still in flight (possibly queued on the dying
		// controller). Wait it out: if it completes definitively, its
		// outcome is ours; if not, re-claim and apply.
		s.mu.Unlock()
		s.tab.ReplayWaits.Add(1)
		<-r.done
		s.mu.Lock()
	}
	r := &opResult{done: make(chan struct{})}
	s.results[seq] = r
	if seq > s.maxSeq {
		s.maxSeq = seq
	}
	s.mu.Unlock()

	err := apply()

	s.mu.Lock()
	if definitive(err) {
		r.completed = true
		r.err = err
		if err == nil {
			s.tab.AppliedOK.Add(1)
		}
		s.evictLocked()
	} else {
		// Not applied; forget the claim so a replay can retry for real.
		delete(s.results, seq)
	}
	close(r.done)
	s.mu.Unlock()
	return err, false
}

// evictLocked drops completed entries older than the retention window and
// advances the floor. Caller holds mu.
func (s *Session) evictLocked() {
	if s.maxSeq <= uint64(s.tab.window) {
		return
	}
	floor := s.maxSeq - uint64(s.tab.window)
	if floor <= s.floor {
		return
	}
	for seq := range s.results {
		if seq <= floor && s.results[seq].completed {
			delete(s.results, seq)
		}
	}
	s.floor = floor
}

// WindowSize reports how many outcomes are currently retained.
func (s *Session) WindowSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.results)
}
