package lint

// CommitOrder is the durability-ordering rule: on every CFG path, a
// mutation of durable state must be *dominated* by the NVRAM append that
// makes it recoverable — persist before apply, the commit-point contract
// DESIGN.md states and the crash sweep probes dynamically. The tracked
// mutations ("apply events") are
//
//   - fact application: pyramid.Pyramid.Insert (the one mutation
//     primitive applyFactsLocked funnels into; pyramid-internal callers
//     are exempt — reorganizing already-committed state is not an apply);
//   - advancement of a persistedSeq field: the recovery watermark must
//     never claim durability for facts not yet in the log;
//   - layout.RewriteShard outside layout itself: rebuild's data copy must
//     follow the committed placement-swap fact (the PR 3 ordering), so a
//     crash mid-copy rolls forward instead of reading a half-placed shard.
//
// The analysis is connguard-shaped: a MUST dataflow with intersection
// join — one bit, "an NVRAM append has happened on every path since
// entry" — solved per body and composed through synchronous calls.
// Callee effects come from checked summaries over syncCallees:
//
//   - mayCommit: some synchronous path through the callee reaches
//     nvram.Device.Append. A call to a mayCommit function sets the bit.
//     MAY is deliberate where the path logic wants MUST: the group
//     committer's follower path never appends itself — it blocks until
//     the leader's append covers its ticket — and error paths return
//     before anything is applied, so demanding MUST would flag every
//     group-commit call site. The residual coarseness (treating any
//     append as covering any later apply, without matching records) is
//     the usual class-granularity trade, same as lockorder's.
//   - undominated: apply events reachable in the callee with the bit
//     still false — the obligation that floats to call sites, so hoisting
//     an apply helper above the commit call is caught at the caller.
//
// `go`-spawned statements are skipped on both sides (an async append
// dominates nothing; an async apply is not this rule's ordering), as are
// deferred statements (they run at return, not where they are written).
//
// Reporting is gated on the body containing a commit event at all:
// recovery and replay bodies apply facts the log already holds, and
// read-side code never commits — both stay silent rather than demanding
// appends that would be wrong to add. The gate plus MUST-dominance is
// exactly the revert test: hoist laneApplyLocked above the group-commit
// call and the bit is false at the apply, in a body that commits.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// commitApply is one apply-at-uncommitted-point witness. pos anchors the
// report in the function that owns the summary (the apply site, or the
// call it floats out of); leafPos is the actual apply site.
type commitApply struct {
	pos     token.Pos
	leafPos token.Pos
	what    string
	via     []funcNode // call chain for floated events; nil = direct
}

// commitSummary is one function's durability effects.
type commitSummary struct {
	mayCommit   bool
	undominated []commitApply
}

var nvramAppend = methodRef{"purity/internal/nvram", "Device", "Append"}
var pyramidInsert = methodRef{"purity/internal/pyramid", "Pyramid", "Insert"}

// applyExemptPkgs: inside the package that owns a durable structure, its
// mutations are reorganization of already-committed state, not applies.
var applyExemptPkgs = map[string]bool{
	"purity/internal/pyramid": true,
	"purity/internal/layout":  true,
}

// commitSummaries builds (once) the per-function durability summaries.
func (s *summaries) commitSummaries() map[funcNode]*commitSummary {
	if s.commit == nil {
		s.commit = computeCommitSummaries(s)
	}
	return s.commit
}

// commitIgnoreIndex maps file → covered line → the line of the
// //lint:ignore commitorder comment covering it (its own line and the
// line below, matching the suppression grammar). Summary-time discharge
// consults it so a reasoned suppression at a leaf apply site stops the
// obligation from cascading to every transitive caller.
func commitIgnoreIndex(prog *Program) map[string]map[int]int {
	idx := map[string]map[int]int{}
	for _, pkg := range prog.Pkgs {
		eachIgnore(pkg, func(c *ast.Comment, names []string) {
			if !slices.Contains(names, "commitorder") {
				return
			}
			pos := prog.Fset.Position(c.Pos())
			m := idx[pos.Filename]
			if m == nil {
				m = map[int]int{}
				idx[pos.Filename] = m
			}
			m[pos.Line] = pos.Line
			m[pos.Line+1] = pos.Line
		})
	}
	return idx
}

func computeCommitSummaries(s *summaries) map[funcNode]*commitSummary {
	out := map[funcNode]*commitSummary{}
	ignores := commitIgnoreIndex(s.prog)
	for _, n := range s.cg.order {
		out[n] = &commitSummary{mayCommit: localMayCommit(s.cg.funcs[n])}
	}
	// mayCommit: monotone boolean union over syncCallees, exact fixpoint.
	s.cg.unionFixpoint(syncCallEdges, func(n, callee funcNode) bool {
		if out[n].mayCommit || !out[callee].mayCommit {
			return false
		}
		out[n].mayCommit = true
		return true
	})
	// undominated: bottom-up DFS; a cycle collapses the in-progress callee
	// to "no claims" (its mayCommit is already exact) — lossy toward
	// silence, like every recursive summary here.
	state := map[funcNode]int{}
	var visit func(n funcNode)
	visit = func(n funcNode) {
		if state[n] != 0 {
			return
		}
		state[n] = 1
		for _, c := range s.cg.funcs[n].syncCallees {
			if out[c] != nil && state[c] == 0 {
				visit(c)
			}
		}
		gf := s.cg.funcs[n]
		p := &commitProblem{s: s, gf: gf, sums: out}
		sol := Solve[bool](BuildCFG(gf.fb.body), p)
		sol.Replay(p, func(node ast.Node, before bool) {
			p.scan(node, before, func(ev commitApply) {
				// A reasoned suppression at the event's own line — the
				// apply site for direct events, the call site for floated
				// ones — discharges the obligation here, before it can
				// float further: record it as used so the stale audit
				// keeps it alive.
				pp := s.prog.Fset.Position(ev.pos)
				if cl, ok := ignores[pp.Filename][pp.Line]; ok {
					if s.usedIgnores == nil {
						s.usedIgnores = map[string]map[int]bool{}
					}
					if s.usedIgnores[pp.Filename] == nil {
						s.usedIgnores[pp.Filename] = map[int]bool{}
					}
					s.usedIgnores[pp.Filename][cl] = true
					return
				}
				out[n].undominated = append(out[n].undominated, ev)
			})
		})
		state[n] = 2
	}
	for _, n := range s.cg.order {
		visit(n)
	}
	return out
}

// localMayCommit: the body itself reaches nvram.Append outside `go`
// subtrees and nested literals.
func localMayCommit(gf *graphFunc) bool {
	found := false
	ast.Inspect(gf.fb.body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if isMethod(calleeFunc(gf.pkg.Info, m), nvramAppend.pkg, nvramAppend.recv, nvramAppend.name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// --- The dataflow problem -----------------------------------------------

// commitProblem's state is one bit: has every path from entry to here
// passed a commit point? Intersection join: false wins.
type commitProblem struct {
	s    *summaries
	gf   *graphFunc
	sums map[funcNode]*commitSummary
}

func (p *commitProblem) Entry() bool                      { return false }
func (p *commitProblem) Refine(_ Edge, s bool) bool       { return s }
func (p *commitProblem) Join(a, b bool) bool              { return a && b }
func (p *commitProblem) Equal(a, b bool) bool             { return a == b }
func (p *commitProblem) Transfer(n ast.Node, s bool) bool { return p.after(n, s) }

// after computes the bit after executing node n.
func (p *commitProblem) after(n ast.Node, s bool) bool {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return s // async / at-return: neither commits nor applies here
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.gf.pkg.Info, call)
		if isMethod(fn, nvramAppend.pkg, nvramAppend.recv, nvramAppend.name) {
			s = true
			return true
		}
		if sum := p.calleeSummary(call, fn); sum != nil && sum.mayCommit {
			s = true
		}
		return true
	})
	return s
}

// scan walks node n with entry bit s and calls record for every apply
// event (direct or floated from a callee) at an uncommitted point,
// updating the bit across the node's calls in source order.
func (p *commitProblem) scan(n ast.Node, s bool, record func(ev commitApply)) {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			// RHS runs first (and may commit); then the stores.
			for _, rhs := range m.Rhs {
				s = p.scanExpr(rhs, s, record)
			}
			for _, lhs := range m.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "persistedSeq" && !s {
					record(commitApply{pos: lhs.Pos(), leafPos: lhs.Pos(), what: "persistedSeq advance"})
				}
			}
			return false
		case *ast.CallExpr:
			s = p.scanCall(m, s, record)
			return false
		}
		return true
	})
}

// scanExpr processes the calls nested in one expression.
func (p *commitProblem) scanExpr(e ast.Expr, s bool, record func(ev commitApply)) bool {
	inspectNoFuncLit(e, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			s = p.scanCall(call, s, record)
			return false
		}
		return true
	})
	return s
}

// scanCall handles one call (arguments first — they evaluate before the
// call), recording apply events and updating the commit bit.
func (p *commitProblem) scanCall(call *ast.CallExpr, s bool, record func(ev commitApply)) bool {
	for _, arg := range call.Args {
		s = p.scanExpr(arg, s, record)
	}
	fn := calleeFunc(p.gf.pkg.Info, call)
	if isMethod(fn, nvramAppend.pkg, nvramAppend.recv, nvramAppend.name) {
		return true
	}
	if what := p.applyKind(fn); what != "" {
		if !s {
			record(commitApply{pos: call.Pos(), leafPos: call.Pos(), what: what})
		}
		return s
	}
	if sum := p.calleeSummary(call, fn); sum != nil {
		if !s && len(sum.undominated) > 0 {
			ev := sum.undominated[0]
			var node funcNode
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				node = funcNode{Lit: lit}
			} else {
				node = funcNode{Fn: fn}
			}
			record(commitApply{
				pos: call.Pos(), leafPos: ev.leafPos, what: ev.what,
				via: append([]funcNode{node}, ev.via...),
			})
		}
		if sum.mayCommit {
			return true
		}
	}
	return s
}

// applyKind classifies a call as an apply event, honoring the owning-
// package exemptions.
func (p *commitProblem) applyKind(fn *types.Func) string {
	if fn == nil || applyExemptPkgs[p.gf.pkg.Path] {
		return ""
	}
	if isMethod(fn, pyramidInsert.pkg, pyramidInsert.recv, pyramidInsert.name) {
		return "fact apply (pyramid.Insert)"
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "purity/internal/layout" &&
		fn.Name() == "RewriteShard" && recvNamed(fn) == nil {
		return "rebuild data copy (layout.RewriteShard)"
	}
	return ""
}

// calleeSummary resolves the durability summary behind a call: a module
// function's, or an immediately-invoked literal's.
func (p *commitProblem) calleeSummary(call *ast.CallExpr, fn *types.Func) *commitSummary {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return p.sums[funcNode{Lit: lit}]
	}
	if moduleFunc(fn, p.s.prog.ModPath) {
		return p.sums[funcNode{Fn: fn}]
	}
	return nil
}

// --- The rule -----------------------------------------------------------

// CommitOrder reports every apply event at an uncommitted point, in
// bodies that commit.
type CommitOrder struct {
	// Scope restricts reporting to packages under these module-relative
	// directories; nil means every requested package (fixture mode).
	Scope []string
}

func (*CommitOrder) Name() string { return "commitorder" }
func (*CommitOrder) Doc() string {
	return "durable-state mutations (fact apply, persistedSeq, rebuild copy) must be dominated by the NVRAM append that commits them, on every path, across calls"
}

func (co *CommitOrder) Prepare(prog *Program) { prog.summaries().commitSummaries() }

func (co *CommitOrder) Check(prog *Program, pkg *Package, rep *Reporter) {
	if !inScope(co.Scope, pkg.RelDir) {
		return
	}
	s := prog.summaries()
	sums := s.commitSummaries()
	for _, fb := range packageBodies(pkg) {
		n := bodyNode(pkg, fb)
		sum := sums[n]
		if sum == nil || len(sum.undominated) == 0 || !bodyCommits(s, pkg, fb) {
			continue
		}
		for _, ev := range sum.undominated {
			if len(ev.via) == 0 {
				rep.Reportf("commitorder", ev.pos,
					"%s not dominated by an NVRAM append on every path reaching it: persist-before-apply — a crash here applies state the log cannot replay",
					ev.what)
				continue
			}
			names := make([]string, len(ev.via))
			for i, v := range ev.via {
				names[i] = s.nodeDisplay(v)
			}
			rep.Reportf("commitorder", ev.pos,
				"call to %s applies durable state (%s at %s) while not dominated by an NVRAM append on every path: persist-before-apply — a crash here applies state the log cannot replay",
				strings.Join(names, " → "), ev.what, s.posAt(ev.leafPos))
		}
	}
}

// bodyCommits gates reporting: does this body contain a commit event at
// all — a direct nvram.Append or a synchronous call that may commit?
// Apply-only bodies (recovery replay, helpers) carry their obligation to
// call sites via the summary instead of being reported here.
func bodyCommits(s *summaries, pkg *Package, fb funcBody) bool {
	sums := s.commitSummaries()
	found := false
	ast.Inspect(fb.body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(m.Fun).(*ast.FuncLit); ok {
				if sum := sums[funcNode{Lit: lit}]; sum != nil && sum.mayCommit {
					found = true
				}
				return !found
			}
			fn := calleeFunc(pkg.Info, m)
			if isMethod(fn, nvramAppend.pkg, nvramAppend.recv, nvramAppend.name) {
				found = true
			} else if moduleFunc(fn, s.prog.ModPath) {
				if sum := sums[funcNode{Fn: fn}]; sum != nil && sum.mayCommit {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
