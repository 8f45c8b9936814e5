// Package fixcommitorderrevert is the commitorder revert fixture: it
// reconstructs the lane-commit hoist hazard — the per-lane apply step
// moved above the NVRAM append it must follow. The real lane path
// (internal/core/lane.go) appends a write's NVRAM record through
// nvramAppend and only then applies the facts to the pyramids; if
// a refactor hoists the apply above the append call, a crash in the gap
// applies state the log cannot replay. Both steps here live behind
// helpers, so catching the reversal requires the interprocedural
// summaries: appendRecord makes laneCommit a committing body, and
// applyFacts carries the undominated insert to the call site.
package fixcommitorderrevert

import (
	"purity/internal/nvram"
	"purity/internal/pyramid"
	"purity/internal/sim"
	"purity/internal/tuple"
)

type lane struct {
	dev *nvram.Device
	pyr *pyramid.Pyramid
}

// appendRecord is the NVRAM commit step: the record becomes durable here.
func appendRecord(ln *lane, at sim.Time, payload []byte) error {
	_, _, err := ln.dev.Append(at, payload)
	return err
}

// applyFacts is the apply step: pyramid state the log must already hold.
func applyFacts(ln *lane, facts []tuple.Fact) error {
	return ln.pyr.Insert(facts)
}

// laneCommit is the hoisted (reverted) ordering: apply before append.
func laneCommit(ln *lane, at sim.Time, payload []byte, facts []tuple.Fact) error {
	if err := applyFacts(ln, facts); err != nil { // want "applies durable state"
		return err
	}
	return appendRecord(ln, at, payload)
}
