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

	"purity/internal/pyramid"
	"purity/internal/tuple"
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

// replayed applies facts the log already holds. The commitorder entry is
// live — it discharges the apply below at summary time, before any
// diagnostic exists to match — but nothing here drops an error, so the
// errdrop entry beside it is stale all the same.
func replayed(p *pyramid.Pyramid, facts []tuple.Fact) error {
	//lint:ignore commitorder,errdrop fixture: replayed from the log // want "stale //lint:ignore"
	return p.Insert(facts)
}
