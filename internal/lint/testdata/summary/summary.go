// Package fixsum exercises the call-graph and summary layer directly: the
// assertions live in summary_test.go, not in // want comments. It is
// loaded only by the lint tests.
package fixsum

import (
	"sync"
	"time"
)

type rec struct {
	mu  sync.Mutex
	ten chan struct{}
}

// Ping and Pong form a mutual-recursion cycle: both must be marked
// recursive and collapse their lattice summaries to top, while the exact
// boolean fixpoint still converges (Pong locks; Ping inherits it).
func (r *rec) Ping(n int) {
	if n > 0 {
		r.Pong(n - 1)
	}
}

func (r *rec) Pong(n int) {
	if n > 0 {
		r.Ping(n - 1)
	}
	r.mu.Lock()
	r.mu.Unlock()
}

// LockViaHelper must inherit locksOwnMu from LockHelper along the
// own-receiver call edge.
func (r *rec) LockViaHelper() { r.LockHelper() }
func (r *rec) LockHelper()    { r.mu.Lock(); r.mu.Unlock() }

// Finish inherits releasesRecv from Cleanup: neither name is in the
// release vocabulary, so only the semaphore receive inside Cleanup and the
// boolean fixpoint can establish it.
func (r *rec) Finish()  { r.Cleanup() }
func (r *rec) Cleanup() { <-r.ten }

// Start references Tick as a method value and nests a literal: the graph
// needs an edge for the reference and a separate node for the literal.
func (r *rec) Start() func() {
	h := r.Tick
	defer func() { h() }()
	return h
}

func (r *rec) Tick() {}

// Forever is an unexitable loop: its summary must carry the loop even
// though nothing spawns it here.
func (r *rec) Forever() {
	for {
		_ = r.ten
	}
}

// looper is conn-shaped, and ReadRec, which reads from it, is
// self-recursive: its summary must collapse to top (no claims) instead of
// looping the analysis.
type looper struct{}

func (looper) Read(p []byte) (int, error)        { return len(p), nil }
func (looper) SetReadDeadline(t time.Time) error { return nil }

func ReadRec(c looper, buf []byte, n int) {
	if n == 0 {
		return
	}
	c.Read(buf)
	ReadRec(c, buf, n-1)
}
