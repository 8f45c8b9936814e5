// Package fixsum exercises the call-graph and summary layer directly: the
// assertions live in summary_test.go, not in // want comments. It is
// loaded only by the lint tests.
package fixsum

import (
	"sync"
	"time"
)

type rec struct {
	mu sync.Mutex
}

// Ping and Pong form a mutual-recursion cycle: the lock fixpoint still
// converges exactly (Pong locks; Ping inherits it).
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

// Start references Tick as a method value and nests a literal: the graph
// needs an edge for the reference and a separate node for the literal.
func (r *rec) Start() func() {
	h := r.Tick
	defer func() { h() }()
	return h
}

func (r *rec) Tick() {}

// Forever calls nothing in the module: the graph keeps it as a node with
// no edges out.
func (r *rec) Forever() {
	for {
		time.Sleep(time.Second)
	}
}

// ReadRec is self-recursive: the graph keeps its self-edge, and the
// fixpoint converges on it.
type looper struct{}

func (looper) Read(p []byte) (int, error) { return len(p), nil }

func ReadRec(c looper, buf []byte, n int) {
	if n == 0 {
		return
	}
	c.Read(buf)
	ReadRec(c, buf, n-1)
}
