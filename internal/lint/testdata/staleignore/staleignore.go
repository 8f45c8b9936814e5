// Package fixstaleignore is a purity-lint fixture for the stale-
// suppression audit: a //lint:ignore is a documented exception, and when
// the rule it names stops firing at that position the exception no longer
// exists — the comment must be reported (under the pseudo-rule "ignore")
// rather than linger as a silent hole the next edit falls into. A
// suppression that still matches a finding stays silent. Staleness is per
// named rule: one live entry on a comma list does not vouch for the others.
package fixstaleignore

import (
	"errors"
	"sync"
)

func fail() error { return errors.New("boom") }

// live drops an error the rule would flag: its suppression earns its keep
// and the audit says nothing.
func live() {
	//lint:ignore errdrop fixture: the error is impossible on this path
	_ = fail()
}

// fixed once dropped the error on the line below the comment; the drop
// was repaired but the suppression stayed behind.
func fixed() error {
	//lint:ignore errdrop fixture: nothing is dropped here any more // want "stale //lint:ignore"
	return fail()
}

type box struct {
	mu sync.Mutex
	n  int
}

// bump adds one. Caller holds mu.
func (b *box) bump() { b.n++ }

// unshared calls bump without the lock, which lockflow reports. The
// lockflow entry is live, but nothing here drops an error, so the errdrop
// entry beside it is stale all the same.
func (b *box) unshared() {
	//lint:ignore lockflow,errdrop fixture: the box is not yet shared // want "stale //lint:ignore"
	b.bump()
}
