package lint

// Per-function effect summaries, computed bottom-up over the call graph —
// the interprocedural layer the summary-based lockflow and lockorder
// consume. Each summary records what *calling* the function does, checked
// from its body rather than trusted from its comments: may the body
// (transitively, through calls on its own receiver and through nested
// literals) acquire its receiver's mu? This is the checked replacement
// for the "Caller holds mu." annotation: lockflow consults the summary,
// so a mis-annotated function is a finding at its call sites, not a blind
// spot.
//
// The lock effect is a boolean may-effect solved by a worklist fixpoint
// over the graph, so recursion converges exactly.

import "go/types"

// funcSummary is one function's computed effects.
type funcSummary struct {
	// locksOwnMu: the body may acquire its own receiver's mu (directly,
	// via a call on the same receiver, or inside a nested literal).
	locksOwnMu bool
}

// summaries is the whole-program summary table, built once per Program and
// shared by every rule that implements preparer.
type summaries struct {
	prog *Program
	cg   *callGraph
	by   map[funcNode]*funcSummary

	// locks caches each body's solved lock lattice (lockflow.go), shared by
	// lockflow's reporting and lockorder's edge collection.
	locks map[funcNode]*lockBody

	// lg caches the module lock-order graph (lockgraph.go), built on first
	// use by the lockorder rule or the -graph exporter.
	lg *lockGraph
}

// summaries builds (once) and returns the program's summary table.
func (prog *Program) summaries() *summaries {
	if prog.sums == nil {
		prog.sums = computeSummaries(prog)
	}
	return prog.sums
}

func computeSummaries(prog *Program) *summaries {
	s := &summaries{prog: prog, cg: buildCallGraph(prog), by: map[funcNode]*funcSummary{},
		locks: map[funcNode]*lockBody{}}
	for _, n := range s.cg.order {
		gf := s.cg.funcs[n]
		sum := &funcSummary{}
		s.localEffects(gf, sum)
		s.by[n] = sum
	}
	s.fixpointLocks()
	return s
}

// of returns the summary for a node, or nil for bodies outside the
// program (stdlib, interface methods).
func (s *summaries) of(n funcNode) *funcSummary { return s.by[n] }

// ofFunc is the common callee lookup.
func (s *summaries) ofFunc(fn *types.Func) *funcSummary { return s.by[funcNode{Fn: fn}] }

// --- Local (intra-procedural) effects ----------------------------------

func (s *summaries) localEffects(gf *graphFunc, sum *funcSummary) {
	pkg := gf.pkg
	// Lock effect: declarations only, over the full body including nested
	// literals (a deferred literal still locks the same receiver).
	if gf.fb.lit == nil && gf.recvName != "" {
		sum.locksOwnMu = acquiresOwnMu(pkg, gf.fb.decl, gf.recvName)
	}
}

// --- Lock-effect fixpoint over the call graph --------------------------

// fixpointLocks propagates locksOwnMu along own-receiver call edges to a
// fixpoint. It only grows, so recursion converges exactly.
func (s *summaries) fixpointLocks() {
	s.cg.unionFixpoint(ownCallEdges, func(n, callee funcNode) bool {
		sum := s.by[n]
		if s.by[callee].locksOwnMu && !sum.locksOwnMu {
			sum.locksOwnMu = true
			return true
		}
		return false
	})
}
