package lint

// Per-function effect summaries, computed bottom-up over the call graph —
// the interprocedural layer goroutinelife and the summary-based lockflow
// consume. Each summary records what *calling* the function does, checked
// from its body rather than trusted from its comments:
//
//   - lock effects: may the body (transitively, through calls on its own
//     receiver and through nested literals) acquire its receiver's mu?
//     This is the checked replacement for the "Caller holds mu."
//     annotation: lockflow consults the summary, so a mis-annotated
//     function is a finding at its call sites, not a blind spot.
//   - goroutine-lifetime effects: infinite loops with no exit tied to a
//     shutdown signal or an error path, which goroutinelife chases
//     transitively from every `go` statement.
//
// The lock effect is a boolean may-effect solved by a worklist fixpoint
// over the graph, so recursion converges exactly.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// funcSummary is one function's computed effects.
type funcSummary struct {
	// locksOwnMu: the body may acquire its own receiver's mu (directly,
	// via a call on the same receiver, or inside a nested literal).
	locksOwnMu bool

	// foreverLoops are infinite loops in this body (literals excluded —
	// they are their own nodes) with no accepted exit: no return, panic,
	// or labeled break that is tied to a channel signal or an error check.
	foreverLoops []token.Pos
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
	// Goroutine-lifetime effect: this body's own loops.
	sum.foreverLoops = localForeverLoops(gf.fb.body)
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

// --- Goroutine-lifetime analysis ---------------------------------------

// localForeverLoops finds infinite loops (`for {}` / `for true {}`) in a
// body (nested literals excluded — they are separate nodes) that provably
// never exit: no statement in the loop can leave it — no return, panic,
// goto, labeled break, or unlabeled break at the loop's own nesting level.
// This is deliberately the MUST end of the lattice: a loop with any exit
// statement passes, even if the exit condition never fires, so every
// report is a loop that structurally cannot end — the StartBeat-without-
// a-done-case shape that outlives Shutdown forever.
func localForeverLoops(body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	inspectNoFuncLit(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || !isInfiniteFor(loop) {
			return true
		}
		if !loopCanExit(loop.Body) {
			out = append(out, loop.Pos())
		}
		return true
	})
	return out
}

func isInfiniteFor(s *ast.ForStmt) bool {
	if s.Cond == nil {
		return true
	}
	id, ok := ast.Unparen(s.Cond).(*ast.Ident)
	return ok && id.Name == "true"
}

func loopCanExit(body *ast.BlockStmt) bool {
	return stmtExitsLoop(body, true)
}

// stmtExitsLoop reports whether executing s can leave the loop whose body
// it is in. breakable is whether an unlabeled break here still refers to
// that loop (false once nested inside an inner for/range/switch/select,
// whose own break it would be). Function literals are skipped: their
// returns leave the literal, not the loop.
func stmtExitsLoop(s ast.Stmt, breakable bool) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch s.Tok {
		case token.GOTO:
			return true // target may be outside; lossy toward silence
		case token.BREAK:
			return breakable || s.Label != nil
		}
		return false
	case *ast.ExprStmt:
		return isPanicCall(s.X)
	case *ast.BlockStmt:
		for _, t := range s.List {
			if stmtExitsLoop(t, breakable) {
				return true
			}
		}
	case *ast.LabeledStmt:
		return stmtExitsLoop(s.Stmt, breakable)
	case *ast.IfStmt:
		if stmtExitsLoop(s.Body, breakable) {
			return true
		}
		return s.Else != nil && stmtExitsLoop(s.Else, breakable)
	case *ast.ForStmt:
		return stmtExitsLoop(s.Body, false)
	case *ast.RangeStmt:
		return stmtExitsLoop(s.Body, false)
	case *ast.SwitchStmt:
		return clausesExitLoop(s.Body)
	case *ast.TypeSwitchStmt:
		return clausesExitLoop(s.Body)
	case *ast.SelectStmt:
		return clausesExitLoop(s.Body)
	}
	return false
}

func clausesExitLoop(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		for _, t := range stmts {
			if stmtExitsLoop(t, false) {
				return true
			}
		}
	}
	return false
}
