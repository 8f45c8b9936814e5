package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"sort"
	"strings"
)

// LockFlow is the repo's lock discipline: a forward dataflow over each
// function's CFG tracking, per mutex selector chain ("a.mu", "a.lostMu"),
// whether the mutex is definitely free, read-held, write-held,
// held-by-caller, or held only on some paths. The annotation grammar is a
// doc-comment sentence "Caller holds mu." on every function that requires
// its receiver's mutex; an annotated method starts with that mu held by
// its caller. On the lattice it reports:
//
//   - a call to an annotated function on a path that provably does not
//     hold the receiver's mu, from a body that is not itself annotated (a
//     function literal inherits its enclosing declaration's annotation,
//     matching how the repo uses short literals under a held lock);
//   - a method named *Locked on a mutex-bearing struct that lacks the
//     annotation, so the naming convention and the checked one cannot
//     drift apart;
//   - a return (or fall-off-the-end) while a lock acquired in this body
//     is still definitely held with no deferred unlock — the early-return
//     unlock gap;
//   - double Lock, Lock-while-RLocked, and RLock-while-write-locked, all
//     of which self-deadlock on Go's non-reentrant mutexes;
//   - Unlock/RUnlock of a mutex this body provably does not hold, and
//     Unlock/RUnlock mode confusion on an RWMutex;
//   - a deferred unlock that fires after the path already released the
//     mutex — a double unlock at return;
//   - a call into a module function whose *checked summary* (summary.go)
//     proves it acquires the same receiver's mu, made while that mu is
//     definitely held — self-deadlock through the call. This trusts no
//     comment: the callee's lock effect is computed bottom-up over the
//     call graph (transitively, so a helper that locks two hops down is
//     still seen), and a function whose "Caller holds mu." comment
//     disagrees with its actual body becomes a finding, not a blind spot;
//   - durable I/O (nvram.Append, ssd.WriteAt, ssd.Erase) issued while a
//     write lock is held: the latency invariant PR 1's prepare/commit
//     split fought for. The check is per body, not through calls: the
//     NVRAM append at the commit point runs in a function that holds
//     nothing on entry, so it needs no exception.
//
// Joins are deliberately lossy toward silence: a mutex held on only some
// incoming paths goes to lockSome, and no check fires on lockSome, so
// every report is backed by a definite state on all paths reaching it. A
// TryLock that is itself a branch condition holds its mutex on the edge
// where it succeeded (Refine).
// Nested RLocks collapse to one level (the lattice has no hold counter),
// function literals are separate flow graphs with nothing held on entry,
// and panic edges are exempt from exit obligations. Receivers are keyed by
// selector chain; calls through function values are out of scope.
type LockFlow struct{}

func (*LockFlow) Name() string { return "lockflow" }
func (*LockFlow) Doc() string {
	return `path-sensitive lock states: "Caller holds mu." annotations, early-return unlock gaps, double lock/unlock, RLock/Lock confusion, durable I/O under a write lock`
}

// Prepare builds the interprocedural summary table the call-site
// self-deadlock check consumes.
func (lf *LockFlow) Prepare(prog *Program) { prog.summaries() }

func (lf *LockFlow) Check(prog *Program, pkg *Package, rep *Reporter) {
	sums := prog.summaries()
	for _, fb := range packageBodies(pkg) {
		gf := sums.cg.funcs[bodyNode(pkg, fb)]
		if fb.lit == nil {
			checkLockedName(gf, rep)
		}
		p := &lockProblem{pkg: gf.pkg, entry: entryLockState(gf), sums: sums}
		sol := Solve[lockState](BuildCFG(fb.body), p)
		p.report = func(pos token.Pos, format string, args ...any) {
			rep.Reportf("lockflow", pos, format, args...)
		}
		sol.Replay(p, func(n ast.Node, before lockState) { p.checkAnnotatedCalls(gf, n, before) })
		for _, blk := range sol.CFG.Blocks {
			if !sol.Reached(blk) {
				continue
			}
			for _, e := range blk.Succs {
				if e.Kind == EdgeImplicitReturn {
					p.checkExit(fb.body.Rbrace, sol.Out[blk])
				}
			}
		}
	}
}

// callerHoldsRE tolerates historical drift ("Caller must hold mu") and,
// via whitespace normalization, doc-comment line wrapping; the repo itself
// stays on the canonical spelling.
var callerHoldsRE = regexp.MustCompile(`(?i)\bcaller(s)? (holds?|must hold) mu\b`)

// hasCallerHolds matches the annotation in a doc comment, joining wrapped
// lines so "Caller holds\nmu." still counts.
func hasCallerHolds(doc string) bool {
	return callerHoldsRE.MatchString(strings.Join(strings.Fields(doc), " "))
}

// entryLockState seeds the lattice from the lock annotation: an annotated
// method starts with its receiver's mu held by the caller. Function
// literals start empty — they run on whatever goroutine invokes them.
func entryLockState(gf *graphFunc) lockState {
	if gf.fb.lit != nil || !gf.annotated || gf.recvName == "" {
		return lockState{}
	}
	return lockState{gf.recvName + ".mu": {mode: lockCaller}}
}

func recvIdentName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// checkLockedName: a *Locked method of a mutex-bearing struct must carry
// the canonical annotation.
func checkLockedName(gf *graphFunc, rep *Reporter) {
	fd := gf.fb.decl
	name := fd.Name.Name
	if gf.annotated || fd.Recv == nil || len(name) <= len("Locked") || !strings.HasSuffix(name, "Locked") {
		return
	}
	if n := recvNamed(gf.node.Fn); n == nil || !structHasMutex(n) {
		return
	}
	rep.Reportf("lockflow", fd.Name.Pos(),
		"method %s is named *Locked but its doc comment lacks the canonical %q annotation", name, "Caller holds mu.")
}

func structHasMutex(n *types.Named) bool {
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutexType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	n := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return isSyncPkg(n.Obj().Pkg().Path()) &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

// lockrankPath is the module's ranked mutex wrappers (internal/lockrank),
// whose Lock, Unlock, TryLock and R* methods lockflow tracks as it tracks
// package sync's.
const lockrankPath = "purity/internal/lockrank"

func isSyncPkg(path string) bool { return path == "sync" || path == lockrankPath }

// acquiresOwnMu reports whether the body takes its own receiver's mu
// field specifically — a.lostMu and other sibling mutexes do not count.
func acquiresOwnMu(pkg *Package, fd *ast.FuncDecl, recvName string) bool {
	if recvName == "" {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if op, recv := syncCall(pkg, call); (op == "Lock" || op == "RLock") &&
			exprKey(pkg.fset, recv) == recvName+".mu" {
			found = true
		}
		return !found
	})
	return found
}

// syncCall recognises a method call into package sync or lockrank —
// mu.Lock(), a.mu.RUnlock(), wg.Add(1) — and returns the method name and
// the receiver expression, whose exprKey is the lock chain. op is "" for
// any other call.
func syncCall(pkg *Package, call *ast.CallExpr) (op string, recv ast.Expr) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || !isSyncPkg(fn.Pkg().Path()) {
		return "", nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	return fn.Name(), sel.X
}

// --- The lock lattice ---------------------------------------------------

type lockMode uint8

const (
	lockFree   lockMode = iota // proven released in this body
	lockRead                   // definitely read-held
	lockWrite                  // definitely write-held
	lockCaller                 // held on entry per "Caller holds mu." (R/W unknown)
	lockSome                   // held on some paths only: checks stay silent
)

func (m lockMode) held() bool { return m == lockRead || m == lockWrite || m == lockCaller }

type lockVal struct {
	mode     lockMode
	deferred bool      // an unlock for this mutex is registered via defer
	pos      token.Pos // acquisition site, for messages
}

// lockState maps mutex chain → value. An absent chain is untracked (the
// body has not touched it), which is weaker than lockFree (a proven
// release): only tracked states trigger reports.
type lockState map[string]lockVal

func (s lockState) with(chain string, v lockVal) lockState {
	out := maps.Clone(s)
	out[chain] = v
	return out
}

// lockProblem is the lock dataflow of one body.
type lockProblem struct {
	pkg   *Package
	entry lockState
	sums  *summaries
	// report is nil while solving; lockflow sets it for the replay, so each
	// diagnostic is emitted exactly once, from the fixpoint state.
	report func(pos token.Pos, format string, args ...any)
}

func (p *lockProblem) reportf(pos token.Pos, format string, args ...any) {
	if p.report != nil {
		p.report(pos, format, args...)
	}
}

func (p *lockProblem) Entry() lockState { return maps.Clone(p.entry) }

// Refine resolves a TryLock or TryRLock that is itself a branch condition
// (possibly negated): on the edge where it succeeded, the mutex is held.
// The failing edge keeps lockSome, as the state before the attempt is not
// remembered; `if !mu.TryLock() { mu.Lock() }` is then held on both paths.
func (p *lockProblem) Refine(e Edge, s lockState) lockState {
	if e.Cond == nil || !condPolarity(e) {
		return s
	}
	c := ast.Unparen(e.Cond)
	if u, ok := c.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		c = ast.Unparen(u.X)
	}
	call, ok := c.(*ast.CallExpr)
	if !ok {
		return s
	}
	op, recv := syncCall(p.pkg, call)
	mode := lockWrite
	switch op {
	case "TryLock":
	case "TryRLock":
		mode = lockRead
	default:
		return s
	}
	chain := exprKey(p.pkg.fset, recv)
	if v := s[chain]; v.mode == lockSome && v.pos == call.Pos() {
		return s.with(chain, lockVal{mode: mode, deferred: v.deferred, pos: v.pos})
	}
	return s
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

func (p *lockProblem) Join(a, b lockState) lockState {
	out := lockState{}
	seen := map[string]bool{}
	merge := func(chain string) {
		if seen[chain] {
			return
		}
		seen[chain] = true
		av, aok := a[chain]
		bv, bok := b[chain]
		deferred := aok && bok && av.deferred && bv.deferred
		var mode lockMode
		switch {
		case aok && bok && av.mode == bv.mode:
			mode = av.mode
		case !aok && bv.mode == lockFree, !bok && av.mode == lockFree:
			// Free on one path, untouched on the other: back to untracked,
			// unless a deferred unlock must be remembered (it cannot be:
			// deferred ANDs to false with an untracked side).
			return
		default:
			mode = lockSome
		}
		pos := av.pos
		if !pos.IsValid() {
			pos = bv.pos
		}
		out[chain] = lockVal{mode: mode, deferred: deferred, pos: pos}
	}
	for chain := range a {
		merge(chain)
	}
	for chain := range b {
		merge(chain)
	}
	return out
}

func (p *lockProblem) Equal(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av.mode != bv.mode || av.deferred != bv.deferred {
			return false
		}
	}
	return true
}

func (p *lockProblem) Transfer(n ast.Node, s lockState) lockState {
	switch n := n.(type) {
	case *ast.DeferStmt:
		for _, chain := range p.deferredUnlocks(n.Call) {
			v := s[chain]
			v.deferred = true
			s = s.with(chain, v)
		}
		return s
	case *ast.ReturnStmt:
		p.checkExit(n.Pos(), s)
		return s
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, recv := syncCall(p.pkg, call); op != "" {
			s = p.applyLockOp(s, exprKey(p.pkg.fset, recv), op, call.Pos())
			return true
		}
		fn := calleeFunc(p.pkg.Info, call)
		if fn == nil {
			return true
		}
		// Summary-based self-deadlock: the callee's computed lock effect
		// (not its comment) says it acquires its receiver's mu, and this
		// path definitely holds that mu — write-locked here, or held by
		// our own caller per the annotation contract.
		if sum := p.sums.ofFunc(fn); sum != nil && sum.locksOwnMu {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				chain := exprKey(p.pkg.fset, sel.X) + ".mu"
				if v, tracked := s[chain]; tracked && (v.mode == lockWrite || v.mode == lockCaller) {
					p.reportf(call.Pos(),
						"call to %s while %s is held (at %s): the callee's summary proves it acquires %s itself — self-deadlock through the call",
						fn.Name(), chain, posAt(p.pkg.fset, v.pos), chain)
				}
			}
		}
		for _, prim := range durablePrimitives {
			if isMethod(fn, prim.pkg, prim.recv, prim.name) {
				p.checkDurable(s, call.Pos(), shortPkg(prim.pkg)+"."+prim.recv+"."+prim.name)
				break
			}
		}
		return true
	})
	return s
}

// deferredUnlocks lists the mutex chains a deferred call will release:
// "defer mu.Unlock()" directly, or unlock calls inside a deferred literal.
func (p *lockProblem) deferredUnlocks(call *ast.CallExpr) []string {
	var chains []string
	record := func(c *ast.CallExpr) {
		if op, recv := syncCall(p.pkg, c); op == "Unlock" || op == "RUnlock" {
			chains = append(chains, exprKey(p.pkg.fset, recv))
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				record(c)
			}
			return true
		})
		return chains
	}
	record(call)
	return chains
}

func (p *lockProblem) applyLockOp(s lockState, chain, op string, pos token.Pos) lockState {
	v, tracked := s[chain]
	switch op {
	case "Lock":
		if tracked {
			switch v.mode {
			case lockWrite:
				p.reportf(pos, "Lock of %s, which is already write-locked (at %s): self-deadlock", chain, posAt(p.pkg.fset, v.pos))
			case lockRead:
				p.reportf(pos, "Lock of %s while read-locked (at %s): lock upgrade deadlocks", chain, posAt(p.pkg.fset, v.pos))
			case lockCaller:
				p.reportf(pos, "Lock of %s, which the caller already holds per the %q annotation: self-deadlock", chain, "Caller holds mu.")
			}
		}
		return s.with(chain, lockVal{mode: lockWrite, deferred: v.deferred, pos: pos})
	case "RLock":
		if tracked && v.mode == lockWrite {
			p.reportf(pos, "RLock of %s while write-locked (at %s): self-deadlock", chain, posAt(p.pkg.fset, v.pos))
		}
		return s.with(chain, lockVal{mode: lockRead, deferred: v.deferred, pos: pos})
	case "Unlock":
		if tracked {
			switch v.mode {
			case lockRead:
				p.reportf(pos, "Unlock of %s, which is read-locked (at %s): use RUnlock", chain, posAt(p.pkg.fset, v.pos))
			case lockFree:
				p.reportf(pos, "Unlock of %s, which is not held on this path", chain)
			}
		}
		return s.with(chain, lockVal{mode: lockFree, deferred: v.deferred})
	case "RUnlock":
		if tracked {
			switch v.mode {
			case lockWrite:
				p.reportf(pos, "RUnlock of %s, which is write-locked (at %s): use Unlock", chain, posAt(p.pkg.fset, v.pos))
			case lockFree:
				p.reportf(pos, "RUnlock of %s, which is not held on this path", chain)
			}
		}
		return s.with(chain, lockVal{mode: lockFree, deferred: v.deferred})
	case "TryLock", "TryRLock":
		// Result-dependent: held only if the call succeeded.
		return s.with(chain, lockVal{mode: lockSome, deferred: v.deferred, pos: pos})
	}
	return s
}

// checkExit enforces the obligations of a normal function exit: every
// lock this body acquired is released (explicitly or by defer), and no
// deferred unlock fires on an already-released mutex.
func (p *lockProblem) checkExit(pos token.Pos, s lockState) {
	for _, chain := range sortedChains(s) {
		v := s[chain]
		switch {
		case (v.mode == lockRead || v.mode == lockWrite) && !v.deferred:
			p.reportf(pos, "return with %s still held (locked at %s): missing unlock on this path", chain, posAt(p.pkg.fset, v.pos))
		case v.mode == lockFree && v.deferred:
			p.reportf(pos, "deferred unlock of %s fires after this path already released it: double unlock", chain)
		}
	}
}

// checkDurable reports a durable-I/O primitive issued under a write lock.
func (p *lockProblem) checkDurable(s lockState, pos token.Pos, prim string) {
	var held []string
	for _, chain := range sortedChains(s) {
		if m := s[chain].mode; m == lockWrite || m == lockCaller {
			held = append(held, chain)
		}
	}
	if len(held) > 0 {
		p.reportf(pos, "durable I/O: %s issued while holding write lock %s: flash/NVRAM latency serializes behind the lock",
			prim, strings.Join(held, ", "))
	}
}

func sortedChains(s lockState) []string {
	chains := make([]string, 0, len(s))
	for chain := range s {
		chains = append(chains, chain)
	}
	sort.Strings(chains)
	return chains
}

// checkAnnotatedCalls reports the calls in n to annotated functions on a
// path (before n) that provably does not hold the receiver's mutex. An
// annotated body — or a literal inside one — is trusted to hold it.
func (p *lockProblem) checkAnnotatedCalls(gf *graphFunc, n ast.Node, s lockState) {
	if gf.annotated {
		return
	}
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := p.sums.cg.funcs[funcNode{Fn: calleeFunc(p.pkg.Info, call)}]
		if callee == nil || !callee.annotated {
			return true
		}
		recvKey := ""
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvKey = exprKey(p.pkg.fset, sel.X)
		}
		if mode := s[recvKey+".mu"].mode; !mode.held() && mode != lockSome {
			p.reportf(call.Pos(),
				"call to %s, which requires %q, but %s does not hold %s.mu on this path",
				callee.node.Fn.Name(), "Caller holds mu.", describeBody(gf.fb), orReceiver(recvKey))
		}
		return true
	})
}

func describeBody(fb funcBody) string {
	if fb.lit != nil {
		return "function literal in " + describeFunc(fb.decl)
	}
	return describeFunc(fb.decl)
}

func describeFunc(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return "method " + fd.Name.Name
	}
	return "function " + fd.Name.Name
}

func orReceiver(recvKey string) string {
	if recvKey == "" {
		return "the receiver"
	}
	return recvKey
}
