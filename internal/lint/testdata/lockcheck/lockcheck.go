// Package fixlock is a purity-lint fixture: every // want comment marks a
// line where the lockcheck rule must report, and the //lint:ignore below
// proves suppression works. The package is loaded only by lint_test.go.
package fixlock

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

// bump adds one. Caller holds mu.
func (b *box) bump() { b.n++ }

// addLocked follows the naming convention but forgot the annotation.
func (b *box) addLocked() { b.n += 2 } // want "named *Locked but its doc comment lacks"

// Bad calls an annotated method without ever taking the lock.
func (b *box) Bad() {
	b.bump() // want "call to bump"
}

// Good holds the lock across the call.
func (b *box) Good() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bump()
}

// Acquire takes and releases its own lock.
func (b *box) Acquire() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// Deadlock holds the write lock to the end of its body and then calls a
// method that acquires the same mutex.
func (b *box) Deadlock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Acquire() // want "self-deadlock"
}

// Suppressed documents why the unlocked call is safe.
func (b *box) Suppressed() {
	//lint:ignore lockflow fixture: the box is not yet shared when this runs
	b.bump()
}
