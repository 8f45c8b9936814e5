package lint

// ReleasePair enforces exactly-once release of admission resources — the
// PR 8 leak class. The server's ingest path threads slot-shaped resources
// through every request: tenant-window slots (`ten <- struct{}{}` to
// acquire, `<-ten` to release), inflight-byte budget grants
// (budget.acquire/budget.release), session-ledger tag claims
// (claimTag/dropTag) and pooled request bodies (bodies.get/bodies.put), all
// handed to the request's release method once it is admitted; in
// internal/core, a write's pooled scratch (writeScratchPool.Get/Put) is
// held the same way from its commit's start to every return. A path that
// returns — or panics — while still holding one pins the slot until
// process death: the dead-client wedge §5 forbids; a body not put back is
// a pool that drains into the collector.
//
// The rule is a forward dataflow over each body's CFG. A resource is
// tracked from its syntactic acquisition site; each path then must release
// it exactly once before every exit, where "release" is:
//
//   - a receive from the acquired channel (`<-ten`),
//   - a release-named call on the same selector chain (release/drop/
//     unclaim, or put on a pool: classifyPair), directly or deferred,
//   - a call to a module function whose summary proves it releases its
//     receiver's slots and acquires none (summary.go's releasesRecv /
//     acquiresRecv bits) — so c.abortAdmission counts as dropping c's tag
//     without any annotation,
//   - a release inside a function literal that is deferred or escapes
//     (conservatively trusted: the closure owns the release now).
//
// Exits with a resource still held report a leak; releasing twice on one
// path reports a double release. Joins are lossy toward silence: paths
// that disagree about a resource collapse to "maybe" and stop being
// checked, so only path-insensitive certainties fire.
//
// Conditional acquisition (`granted, waited := budget.acquire(n)` followed
// by `if !granted`) is modeled by a pending acquire resolved at the branch
// edge: the true side of `granted` holds the resource, the false side
// never acquired it. This is exactly the shape whose broken variant —
// releasing only on the granted path's success continuation but not its
// error return — caused the PR 8 leak.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

type relMode uint8

const (
	relHeld relMode = iota
	relFreed
	relSome // paths disagree: stop tracking, stay silent
)

// relVal is one tracked resource's per-path state.
type relVal struct {
	mode     relMode
	deferred bool // a deferred release is registered (runs at every exit)
	escaped  bool // the release escaped into a closure we can't follow
	pos      token.Pos
	what     string
}

// relPending is a conditional acquisition waiting for its guard branch.
type relPending struct {
	chain   string
	what    string
	guard   types.Object // `granted` in `granted, _ := x.acquire(n)`
	callPos token.Pos    // the call itself used as the condition
	pos     token.Pos
}

type relState struct {
	res     map[string]relVal
	pending *relPending
}

func (s relState) clone() relState {
	return relState{res: maps.Clone(s.res), pending: s.pending}
}

type relProblem struct {
	pkg  *Package
	sums *summaries
	// report is nil while solving and set during Replay, so each finding
	// fires exactly once.
	report func(format string, pos token.Pos, args ...any)
}

func (p *relProblem) Entry() relState { return relState{res: map[string]relVal{}} }

func (p *relProblem) Join(a, b relState) relState {
	out := relState{res: map[string]relVal{}}
	for k, av := range a.res {
		bv, ok := b.res[k]
		switch {
		case !ok:
			// Acquired on one path only: keep checking only if the other
			// path can't reach an exit holding it — it can't, it never
			// acquired. Held-on-one-side collapses to maybe.
			if av.mode == relHeld {
				av.mode = relSome
				out.res[k] = av
			}
		case av.mode == bv.mode:
			av.deferred = av.deferred && bv.deferred
			av.escaped = av.escaped || bv.escaped
			out.res[k] = av
		default:
			av.mode = relSome
			out.res[k] = av
		}
	}
	if a.pending != nil && b.pending == a.pending {
		out.pending = a.pending
	}
	return out
}

func (p *relProblem) Equal(a, b relState) bool {
	return a.pending == b.pending && maps.Equal(a.res, b.res)
}

// Refine resolves a pending conditional acquisition at the guard branch:
// the true edge holds the resource, the false edge never acquired it.
func (p *relProblem) Refine(e Edge, s relState) relState {
	if s.pending == nil || e.Cond == nil {
		return s
	}
	pend := s.pending
	if !p.matchGuard(e.Cond, pend) {
		return s
	}
	out := s.clone()
	out.pending = nil
	if condPolarity(e) {
		out.res[pend.chain] = relVal{mode: relHeld, pos: pend.pos, what: pend.what}
	}
	return out
}

// matchGuard reports whether cond tests the pending acquisition: the bound
// guard variable (possibly negated — polarity is handled by the edge), or
// the acquiring call itself used as the condition.
func (p *relProblem) matchGuard(cond ast.Expr, pend *relPending) bool {
	e := ast.Unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		e = ast.Unparen(u.X)
	}
	switch e := e.(type) {
	case *ast.Ident:
		return pend.guard != nil && p.pkg.Info.Uses[e] == pend.guard
	case *ast.CallExpr:
		return pend.callPos.IsValid() && e.Pos() == pend.callPos
	}
	return false
}

// condPolarity: does this edge mean the condition held? A negated guard
// flips it.
func condPolarity(e Edge) bool {
	c := ast.Unparen(e.Cond)
	if u, ok := c.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		return !e.CondTrue
	}
	return e.CondTrue
}

func (p *relProblem) Transfer(n ast.Node, s relState) relState {
	deferred := false
	if d, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		s = p.applyCallNode(d.Call, s, true, false)
	}
	if _, ok := n.(*ast.ReturnStmt); ok {
		// A closure escaping via the return value (the fixture's Handoff
		// shape) owns the obligation now — scan the return's operands
		// before judging the exit.
		s = p.walkOps(n, s)
		s = p.applyLits(n, s)
		s = p.checkExit(n.Pos(), "return", s)
		return s
	}
	if !deferred {
		s = p.walkOps(n, s)
	}
	s = p.applyLits(n, s)
	return s
}

// walkOps applies acquires and releases in source order within one CFG
// node (function literals excluded — they get their own CFGs; their
// releases are handled by applyLits).
func (p *relProblem) walkOps(n ast.Node, s relState) relState {
	fset := p.pkg.fset
	inspectNoFuncLit(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.SendStmt:
			// ch <- struct{}{} : unconditional slot acquire.
			if isSlotChan(p.pkg, m.Chan) {
				chain := exprKey(fset, m.Chan)
				s = p.applyAcquire(s, chain, chain+" slot", m.Pos())
			}
		case *ast.UnaryExpr:
			// <-ch on a struct{} channel: release (ignored if untracked —
			// most such receives are shutdown/drain signals, not slots).
			if m.Op == token.ARROW && isSlotChan(p.pkg, m.X) {
				s = p.applyRelease(s, exprKey(fset, m.X), m.Pos(), false)
			}
		case *ast.CallExpr:
			s = p.applyCallOps(m, s, n)
		}
		return true
	})
	return s
}

// applyCallOps classifies one call found inside node n: by name first
// (acquire/release verbs on a selector chain), then by callee summary.
func (p *relProblem) applyCallOps(call *ast.CallExpr, s relState, ctx ast.Node) relState {
	fset := p.pkg.fset
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return s
	}
	chain := exprKey(fset, sel.X)
	name := sel.Sel.Name
	switch classifyPair(p.pkg.Info, sel) {
	case pairAcquire:
		what := chain + "." + name
		if pend := p.pendingContext(call, ctx, chain, what); pend != nil {
			out := s.clone()
			out.pending = pend
			return out
		}
		return p.applyAcquire(s, chain, what, call.Pos())
	case pairRelease:
		return p.applyRelease(s, chain, call.Pos(), false)
	}
	// Summary-based release: a module method on a tracked chain whose body
	// provably releases its receiver's slots without acquiring any (the
	// abortAdmission shape). Both-set summaries are a wash — no-op.
	if _, tracked := s.res[chain]; tracked {
		if fn := calleeFunc(p.pkg.Info, call); moduleFunc(fn, p.sums.prog.ModPath) {
			if sum := p.sums.ofFunc(fn); sum != nil && sum.releasesRecv && !sum.acquiresRecv {
				return p.applyRelease(s, chain, call.Pos(), false)
			}
		}
	}
	return s
}

// pendingContext decides whether an acquiring call is conditional: bound
// to a guard variable (`granted, _ := x.acquire(n)`) or used directly as a
// condition. Returns nil for plain unconditional acquisition.
func (p *relProblem) pendingContext(call *ast.CallExpr, ctx ast.Node, chain, what string) *relPending {
	switch ctx := ctx.(type) {
	case *ast.AssignStmt:
		if len(ctx.Rhs) == 1 && ast.Unparen(ctx.Rhs[0]) == call && len(ctx.Lhs) >= 1 {
			if id, ok := ctx.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				obj := p.pkg.Info.Defs[id]
				if obj == nil {
					obj = p.pkg.Info.Uses[id]
				}
				if obj != nil && isBoolType(obj.Type()) {
					return &relPending{chain: chain, what: what, guard: obj, pos: call.Pos()}
				}
			}
		}
	case ast.Expr:
		// The CFG stores an if-condition as its own node, so the context of
		// `if !c.claimTag(tag)` is the negated expression — unwrap it.
		e := ast.Unparen(ctx)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
			e = ast.Unparen(u.X)
		}
		if e == call {
			return &relPending{chain: chain, what: what, callPos: call.Pos(), pos: call.Pos()}
		}
	}
	return nil
}

func isBoolType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsBoolean != 0
}

// applyCallNode handles `defer x.release()` / `defer func(){...}()`.
func (p *relProblem) applyCallNode(call *ast.CallExpr, s relState, deferred, escaped bool) relState {
	fset := p.pkg.fset
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return p.applyLitReleases(lit, s, deferred, escaped)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		chain := exprKey(fset, sel.X)
		if classifyPair(p.pkg.Info, sel) == pairRelease {
			return p.applyRelease(s, chain, call.Pos(), deferred)
		}
		if _, tracked := s.res[chain]; tracked && deferred {
			if fn := calleeFunc(p.pkg.Info, call); moduleFunc(fn, p.sums.prog.ModPath) {
				if sum := p.sums.ofFunc(fn); sum != nil && sum.releasesRecv && !sum.acquiresRecv {
					return p.applyRelease(s, chain, call.Pos(), true)
				}
			}
		}
	}
	return s
}

// applyLits scans function literals created in this node: a release inside
// a deferred literal counts as a deferred release; a release inside any
// other literal marks the resource escaped (the closure may or may not
// run — stop judging it, silently).
func (p *relProblem) applyLits(n ast.Node, s relState) relState {
	isDefer := false
	if _, ok := n.(*ast.DeferStmt); ok {
		isDefer = true
	}
	ast.Inspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		s = p.applyLitReleases(lit, s, isDefer, !isDefer)
		return false
	})
	return s
}

// applyLitReleases finds releases of currently-tracked chains inside a
// literal and applies them as deferred or escaped.
func (p *relProblem) applyLitReleases(lit *ast.FuncLit, s relState, deferred, escaped bool) relState {
	fset := p.pkg.fset
	touch := func(chain string, pos token.Pos) {
		v, ok := s.res[chain]
		if !ok || v.mode != relHeld {
			return
		}
		s = s.clone()
		if deferred {
			v.deferred = true
		}
		if escaped {
			v.escaped = true
		}
		s.res[chain] = v
	}
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && isSlotChan(p.pkg, m.X) {
				touch(exprKey(fset, m.X), m.Pos())
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok &&
				classifyPair(p.pkg.Info, sel) == pairRelease {
				touch(exprKey(fset, sel.X), m.Pos())
			}
		}
		return true
	})
	return s
}

func (p *relProblem) applyAcquire(s relState, chain, what string, pos token.Pos) relState {
	out := s.clone()
	out.res[chain] = relVal{mode: relHeld, pos: pos, what: what}
	return out
}

func (p *relProblem) applyRelease(s relState, chain string, pos token.Pos, deferred bool) relState {
	v, ok := s.res[chain]
	if !ok {
		return s // untracked: a shutdown signal or someone else's slot
	}
	out := s.clone()
	switch v.mode {
	case relHeld:
		if v.deferred && !deferred {
			// Direct release with a deferred one already registered: the
			// defer will fire too — double release at exit.
			p.reportf("%s released here and again by the earlier defer: slot double-release corrupts the admission window", pos, v.what)
			out.res[chain] = relVal{mode: relSome}
			return out
		}
		v.mode = relFreed
		v.deferred = v.deferred || deferred
		out.res[chain] = v
	case relFreed:
		p.reportf("%s released twice on this path (first release above): slot double-release corrupts the admission window", pos, v.what)
		delete(out.res, chain)
	case relSome:
		delete(out.res, chain)
	}
	return out
}

// checkExit fires leak findings for resources still held at an exit.
func (p *relProblem) checkExit(pos token.Pos, how string, s relState) relState {
	for _, v := range s.res {
		if v.mode == relHeld && !v.deferred && !v.escaped {
			p.reportf("%s leaves %s held (acquired at %s) with no release on this path: a dead client would pin the slot forever",
				pos, how, v.what, posAt(p.pkg.fset, v.pos))
		}
	}
	return s
}

func (p *relProblem) reportf(format string, pos token.Pos, args ...any) {
	if p.report != nil {
		p.report(format, pos, args...)
	}
}

// --- The rule -----------------------------------------------------------

// ReleasePair runs the exactly-once-release dataflow over every body in
// scope.
type ReleasePair struct {
	Scope []string
}

func (*ReleasePair) Name() string { return "releasepair" }
func (*ReleasePair) Doc() string {
	return "admission slots, budget grants, and ledger claims must be released exactly once on every path, including panic and early return"
}

func (rp *ReleasePair) Prepare(prog *Program) { prog.summaries() }

func (rp *ReleasePair) Check(prog *Program, pkg *Package, rep *Reporter) {
	if !inScope(rp.Scope, pkg.RelDir) {
		return
	}
	sums := prog.summaries()
	for _, fb := range packageBodies(pkg) {
		p := &relProblem{pkg: pkg, sums: sums}
		cfg := BuildCFG(fb.body)
		sol := Solve[relState](cfg, p)
		p.report = func(format string, pos token.Pos, args ...any) {
			rep.Reportf("releasepair", pos, "%s", fmt.Sprintf(format, args...))
		}
		// Explicit returns and double releases report from Transfer during
		// the replay; implicit-return and panic exits are per-edge, so they
		// are checked from the solved block-exit states afterwards.
		sol.Replay(p, nil)
		for _, blk := range cfg.Blocks {
			if !sol.Reached(blk) {
				continue
			}
			out := sol.Out[blk]
			for _, e := range blk.Succs {
				switch e.Kind {
				case EdgeImplicitReturn:
					p.checkExit(blockExitPos(blk, fb), "fallthrough return", out)
				case EdgePanic:
					p.checkPanicExit(blockExitPos(blk, fb), out)
				}
			}
		}
		p.report = nil
	}
}

// blockExitPos picks a position for an edge-based exit: the block's last
// node, or the body's closing brace for the empty entry block.
func blockExitPos(blk *Block, fb funcBody) token.Pos {
	if n := len(blk.Nodes); n > 0 {
		return blk.Nodes[n-1].Pos()
	}
	return fb.body.Rbrace
}

// checkPanicExit: a panic unwinds through defers, so deferred releases
// still run; only a direct, un-deferred hold leaks.
func (p *relProblem) checkPanicExit(pos token.Pos, s relState) {
	for _, v := range s.res {
		if v.mode == relHeld && !v.deferred && !v.escaped {
			p.reportf("panic path leaves %s held (acquired at %s): only a deferred release survives unwinding",
				pos, v.what, posAt(p.pkg.fset, v.pos))
		}
	}
}
