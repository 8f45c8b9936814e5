package lint

// Per-function effect summaries, computed bottom-up over the call graph —
// the interprocedural layer the v3 rules (connguard, releasepair,
// goroutinelife) and the summary-based lockflow consume. Each summary
// records what *calling* the function does, checked from its body rather
// than trusted from its comments:
//
//   - lock effects: may the body (transitively, through calls on its own
//     receiver and through nested literals) acquire its receiver's mu?
//     This is the checked replacement for the "Caller holds mu."
//     annotation: lockflow consults the summary, so a mis-annotated
//     function is a finding at its call sites, not a blind spot.
//   - deadline effects (connguard.go): which reader/writer parameters the
//     body arms with a Set*Deadline on every path, and which it reads or
//     writes with no deadline on some path — the obligation that floats to
//     the wedge-prone call site.
//   - slot effects: does calling the function release (or acquire) an
//     admission-slot-like resource rooted at its receiver — how
//     abortAdmission-style helpers count as releases at their call sites.
//   - goroutine-lifetime effects: infinite loops with no exit tied to a
//     shutdown signal or an error path, which goroutinelife chases
//     transitively from every `go` statement.
//
// Boolean may-effects (locks, slot release) are solved by a worklist
// fixpoint over the graph, so recursion converges exactly. The
// path-sensitive deadline summaries cannot iterate a CFG lattice around a
// cycle cheaply, so recursive nodes collapse to top (⊤): a summary with no
// claims, on which every consumer stays silent. Lossy toward silence, like
// every join in this package.

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

	// releasesRecv / acquiresRecv: the body releases (acquires) a
	// slot-like resource rooted at its receiver — a semaphore-channel
	// op or a call matching the acquire/release name families.
	releasesRecv bool
	acquiresRecv bool

	// conn holds the deadline-effect summary (connguard.go); nil when the
	// body touches no reader/writer values.
	conn *connSummary

	// foreverLoops are infinite loops in this body (literals excluded —
	// they are their own nodes) with no accepted exit: no return, panic,
	// or labeled break that is tied to a channel signal or an error check.
	foreverLoops []token.Pos

	// top marks a summary collapsed by recursion: no claims, consumers
	// stay silent.
	top bool
}

// summaries is the whole-program summary table, built once per Run and
// shared by every rule that implements preparer.
type summaries struct {
	prog *Program
	cg   *callGraph
	by   map[funcNode]*funcSummary

	// lg caches the module lock-order graph (lockgraph.go), built on first
	// use by the lockorder rule or the -graph exporter.
	lg *lockGraph

	// commit caches the durability-ordering summaries (commitorder.go).
	commit map[funcNode]*commitSummary

	// usedIgnores records //lint:ignore comments (file → comment line) that
	// discharged an obligation *inside* the summary layer — a suppressed
	// leaf apply event never floats to callers, so no diagnostic ever
	// reaches the suppression matcher. The stale-suppression audit counts
	// these as live.
	usedIgnores map[string]map[int]bool
}

// summaries builds (once) and returns the program's summary table.
func (prog *Program) summaries() *summaries {
	if prog.sums == nil {
		prog.sums = computeSummaries(prog)
	}
	return prog.sums
}

func computeSummaries(prog *Program) *summaries {
	s := &summaries{prog: prog, cg: buildCallGraph(prog), by: map[funcNode]*funcSummary{}}
	for _, n := range s.cg.order {
		gf := s.cg.funcs[n]
		sum := &funcSummary{top: gf.recursive}
		s.localEffects(gf, sum)
		s.by[n] = sum
	}
	s.fixpointBooleans()
	computeConnSummaries(s)
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
	// Slot effects: walk the body without literals (an escaping literal's
	// releases are the *holder's* obligation, not this function's), but
	// include literals that provably run before return: deferred literal
	// calls and immediately-invoked literals.
	scanSlot := func(root ast.Node) {
		inspectNoFuncLit(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SendStmt:
				if isSlotChan(pkg, m.Chan) && rootIdentName(m.Chan) == gf.recvName && gf.recvName != "" {
					sum.acquiresRecv = true
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && isSlotChan(pkg, m.X) && rootIdentName(m.X) == gf.recvName && gf.recvName != "" {
					sum.releasesRecv = true
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok &&
					rootIdentName(sel.X) == gf.recvName && gf.recvName != "" {
					switch classifyPairName(sel.Sel.Name) {
					case pairAcquire:
						sum.acquiresRecv = true
					case pairRelease:
						sum.releasesRecv = true
					}
				}
			}
			return true
		})
	}
	scanSlot(gf.fb.body)
	for _, lit := range runBeforeReturnLits(gf.fb.body) {
		scanSlot(lit.Body)
	}
	// Goroutine-lifetime effect: this body's own loops.
	sum.foreverLoops = localForeverLoops(gf.fb.body)
}

// rootIdentName returns the leftmost identifier of a selector chain, or
// "" when the expression is not rooted in a plain identifier.
func rootIdentName(e ast.Expr) string {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t.Name
		case *ast.SelectorExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return ""
		}
	}
}

// runBeforeReturnLits lists literals that provably execute before the
// enclosing body returns: `defer func(){...}()` and immediately-invoked
// `func(){...}()`.
func runBeforeReturnLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	inspectNoFuncLit(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			out = append(out, lit)
		}
		return true
	})
	return out
}

// --- Boolean fixpoint over the call graph ------------------------------

// fixpointBooleans propagates the monotone boolean effects (locksOwnMu,
// releasesRecv, acquiresRecv) along own-receiver call edges to a
// fixpoint. Booleans only grow, so recursion converges exactly — this is
// the "fixpoint to top" half the lattice-valued summaries approximate by
// collapsing.
func (s *summaries) fixpointBooleans() {
	s.cg.unionFixpoint(ownCallEdges, func(n, callee funcNode) bool {
		sum, cs := s.by[n], s.by[callee]
		changed := false
		grow := func(dst *bool, src bool) {
			if src && !*dst {
				*dst = true
				changed = true
			}
		}
		grow(&sum.locksOwnMu, cs.locksOwnMu)
		grow(&sum.releasesRecv, cs.releasesRecv)
		grow(&sum.acquiresRecv, cs.acquiresRecv)
		return changed
	})
}

// --- Slot-pair vocabulary ----------------------------------------------

type pairKind uint8

const (
	pairNone pairKind = iota
	pairAcquire
	pairRelease
)

// classifyPairName maps a method name onto the repo's acquire/release
// vocabulary. The families are deliberately narrow: admission slots and
// ledger claims (acquire/claim/reserve) against their releases
// (release/drop/unclaim/abort is NOT here — abortAdmission counts via its
// summary, because its body calls dropTag).
func classifyPairName(name string) pairKind {
	switch {
	case name == "acquire" || name == "Acquire" ||
		hasNamePrefix(name, "claim") || hasNamePrefix(name, "reserve"):
		return pairAcquire
	case name == "release" || name == "Release" ||
		hasNamePrefix(name, "drop") || hasNamePrefix(name, "unclaim"):
		return pairRelease
	}
	return pairNone
}

// hasNamePrefix matches prefix case-insensitively on the first rune only
// (claimTag, ClaimTag), without matching unrelated words (claims… is fine;
// the families above are short verbs).
func hasNamePrefix(name, prefix string) bool {
	if len(name) < len(prefix) {
		return false
	}
	head := name[:len(prefix)]
	return head == prefix || head == string(prefix[0]-'a'+'A')+prefix[1:]
}

// isSlotChan reports whether e is a `chan struct{}` — the repo's semaphore
// idiom (tenant windows). Sends acquire a slot, receives release one.
func isSlotChan(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	ch, ok := tv.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
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
