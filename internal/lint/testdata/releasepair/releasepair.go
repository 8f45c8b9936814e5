// Package fixrel is a purity-lint fixture for the releasepair rule: every
// // want comment marks a line where the exactly-once-release analysis
// must report, and the //lint:ignore below proves suppression works. The
// package is loaded only by lint_test.go.
//
// The types mirror the server's admission shapes: a tenant-window
// semaphore channel, a byte-budget with a granted-bool acquire, and a
// tag ledger with claim/drop verbs — including the exact PR 8 leak, kept
// here as a regression fixture (RevertPR8) proving the rule would have
// caught it.
package fixrel

type budget struct{ n int }

func (b *budget) acquire(n int) bool { b.n += n; return b.n < 8 }
func (b *budget) release(n int)      { b.n -= n }

type conn struct {
	ten    chan struct{}
	budget *budget
	tags   map[uint32]bool
}

func (c *conn) claimTag(tag uint32) bool {
	if c.tags[tag] {
		return false
	}
	c.tags[tag] = true
	return true
}

func (c *conn) dropTag(tag uint32) { delete(c.tags, tag) }

// abortAdmission is not named like a release; it counts as one at call
// sites because its summary proves it drops its receiver's claim.
func (c *conn) abortAdmission(tag uint32) { c.dropTag(tag) }

// LeakOnError forgets the slot on the error path.
func (c *conn) LeakOnError(fail bool) {
	c.ten <- struct{}{}
	if fail {
		return // want "held"
	}
	<-c.ten
}

// Balanced releases on every path: clean.
func (c *conn) Balanced(fail bool) {
	c.ten <- struct{}{}
	if fail {
		<-c.ten
		return
	}
	<-c.ten
}

// DeferRelease registers the release up front: clean on every exit.
func (c *conn) DeferRelease(fail bool) {
	c.ten <- struct{}{}
	defer func() { <-c.ten }()
	if fail {
		return
	}
}

// DoubleRelease frees the same slot twice on one path.
func (c *conn) DoubleRelease() {
	c.ten <- struct{}{}
	<-c.ten
	<-c.ten // want "released twice"
}

// RevertPR8 is the PR 8 admission-slot leak verbatim: the budget-denied
// path returns without putting the tenant-window slot back.
func (c *conn) RevertPR8() {
	c.ten <- struct{}{}
	granted := c.budget.acquire(1)
	if !granted {
		return // want "held"
	}
	<-c.ten
	c.budget.release(1)
}

// FixedPR8 is the shipped fix: the denied path releases before returning.
func (c *conn) FixedPR8() {
	c.ten <- struct{}{}
	granted := c.budget.acquire(1)
	if !granted {
		<-c.ten
		return
	}
	<-c.ten
	c.budget.release(1)
}

// SummaryRelease: abortAdmission releases the claim via its summary, with
// no release-family name at the call site.
func (c *conn) SummaryRelease(tag uint32) {
	if !c.claimTag(tag) {
		return
	}
	c.abortAdmission(tag)
}

// LeakTag claims and never drops.
func (c *conn) LeakTag(tag uint32) bool {
	if !c.claimTag(tag) {
		return false
	}
	return true // want "held"
}

// PanicLeak: a panic unwinds past a direct (un-deferred) hold.
func (c *conn) PanicLeak(fail bool) {
	c.ten <- struct{}{}
	if fail {
		panic("boom") // want "panic path"
	}
	<-c.ten
}

// Handoff moves the release obligation into an escaping closure, a
// callback the holder runs later. The closure owns it now: clean here.
func (c *conn) Handoff() func() {
	c.ten <- struct{}{}
	return func() { <-c.ten }
}

// Suppressed pins a slot on purpose, with the documented reason.
func (c *conn) Suppressed() {
	c.ten <- struct{}{}
	//lint:ignore releasepair fixture: the slot is pinned deliberately to starve the window in tests
	return
}

// pool lends buffers: get against put, the server's request-body shape.
type pool struct{ free [][]byte }

func (p *pool) get(n int) []byte {
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b[:n]
	}
	return make([]byte, n)
}

func (p *pool) put(b []byte) { p.free = append(p.free, b) }

type reader struct {
	bodies *pool
	fill   func([]byte) error
}

// LeakBody drops a pooled body on the read-error path.
func (r *reader) LeakBody(n int) []byte {
	body := r.bodies.get(n)
	if err := r.fill(body); err != nil {
		return nil // want "held"
	}
	r.bodies.put(body)
	return nil
}

// BalancedBody returns the body on every path: clean.
func (r *reader) BalancedBody(n int) error {
	body := r.bodies.get(n)
	if err := r.fill(body); err != nil {
		r.bodies.put(body)
		return err
	}
	r.bodies.put(body)
	return nil
}

// table has a Get that is a lookup, with no Put: not a pool, not tracked.
type table struct{ m map[int]int }

func (t *table) Get(k int) int { return t.m[k] }

// Lookup is silent: a Get without a Put is not a loan.
func Lookup(t *table) int {
	return t.Get(1)
}
