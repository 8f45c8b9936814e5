package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// LockFlow is the path-sensitive half of the lock discipline: a forward
// dataflow over each function's CFG tracking, per mutex selector chain
// ("a.mu", "a.lostMu"), whether the mutex is definitely free, read-held,
// write-held, held-by-caller (the "Caller holds mu." annotation), or held
// only on some paths. On that lattice it reports:
//
//   - a return (or fall-off-the-end) while a lock acquired in this body
//     is still definitely held with no deferred unlock — the early-return
//     unlock gap the syntactic rule could not see;
//   - double Lock, Lock-while-RLocked, and RLock-while-write-locked, all
//     of which self-deadlock on Go's non-reentrant mutexes;
//   - Unlock/RUnlock of a mutex this body provably does not hold, and
//     Unlock/RUnlock mode confusion on an RWMutex;
//   - a deferred unlock that fires after the path already released the
//     mutex — a double unlock at return;
//   - a call into a module function whose *checked summary* (summary.go)
//     proves it acquires the same receiver's mu, made while that mu is
//     definitely held — self-deadlock through the call. Unlike the old
//     annotation-driven check this trusts nothing: the callee's lock
//     effect is computed bottom-up over the call graph (transitively, so
//     a helper that locks two hops down is still seen), and a function
//     whose "Caller holds mu." comment disagrees with its actual body
//     becomes a finding instead of a blind spot;
//   - durable I/O (nvram.Append, ssd.WriteAt, ssd.Erase) issued while a
//     write lock is held: the latency invariant PR 1's prepare/commit
//     split fought for. The intentional exception — the NVRAM append that
//     IS the commit point — carries a //lint:ignore with its reason.
//
// Joins are deliberately lossy toward silence: a mutex held on only some
// incoming paths goes to lockSome, and no check fires on lockSome, so
// every report is backed by a definite state on all paths reaching it.
// Nested RLocks collapse to one level (the lattice has no hold counter),
// function literals are separate flow graphs with nothing held on entry,
// and panic edges are exempt from exit obligations.
type LockFlow struct{}

func (*LockFlow) Name() string { return "lockflow" }
func (*LockFlow) Doc() string {
	return "path-sensitive lock states: early-return unlock gaps, double lock/unlock, RLock/Lock confusion, durable I/O under a write lock"
}

// Prepare builds the interprocedural summary table the call-site
// self-deadlock check consumes.
func (lf *LockFlow) Prepare(prog *Program) { prog.summaries() }

func (lf *LockFlow) Check(prog *Program, pkg *Package, rep *Reporter) {
	for _, fb := range packageBodies(pkg) {
		p := &lockProblem{pkg: pkg, entry: entryLockState(fb), durable: true, sums: prog.summaries()}
		cfg := BuildCFG(fb.body)
		sol := Solve[lockState](cfg, p)
		p.report = func(pos token.Pos, format string, args ...any) {
			rep.Reportf("lockflow", pos, format, args...)
		}
		sol.Replay(p, nil)
		for _, blk := range cfg.Blocks {
			if !sol.Reached(blk) {
				continue
			}
			for _, e := range blk.Succs {
				if e.Kind == EdgeImplicitReturn {
					p.checkExit(fb.body.Rbrace, sol.Out[blk])
				}
			}
		}
		p.report = nil
	}
}

// entryLockState seeds the lattice from the lock annotation: an annotated
// method starts with its receiver's mu held by the caller. Function
// literals start empty — they run on whatever goroutine invokes them.
func entryLockState(fb funcBody) lockState {
	if fb.lit != nil || fb.decl == nil || !hasCallerHolds(fb.decl.Doc.Text()) {
		return lockState{}
	}
	recv := recvIdentName(fb.decl)
	if recv == "" {
		return lockState{}
	}
	return lockState{recv + ".mu": {mode: lockCaller}}
}

func recvIdentName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
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
	out := make(lockState, len(s)+1)
	for k, sv := range s {
		out[k] = sv
	}
	out[chain] = v
	return out
}

// lockProblem is the shared dataflow solved by both lockflow and the
// rewritten lockcheck; only lockflow sets report and durable.
type lockProblem struct {
	pkg     *Package
	entry   lockState
	durable bool
	// sums enables the summary-based call-site self-deadlock check; nil
	// (the syntactic lockcheck reuses this problem) disables it.
	sums *summaries
	// report is nil while solving; Replay sets it so each diagnostic is
	// emitted exactly once, from the fixpoint state.
	report func(pos token.Pos, format string, args ...any)
}

func (p *lockProblem) reportf(pos token.Pos, format string, args ...any) {
	if p.report != nil {
		p.report(pos, format, args...)
	}
}

func (p *lockProblem) Entry() lockState {
	out := make(lockState, len(p.entry))
	for k, v := range p.entry {
		out[k] = v
	}
	return out
}

func (p *lockProblem) Refine(_ Edge, s lockState) lockState { return s }

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
			s = p.applyLockOp(s, exprKey(p.pkg.pkgFset(), recv), op, call.Pos())
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
		if p.sums != nil {
			if sum := p.sums.ofFunc(fn); sum != nil && sum.locksOwnMu {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					chain := exprKey(p.pkg.pkgFset(), sel.X) + ".mu"
					if v, tracked := s[chain]; tracked && (v.mode == lockWrite || v.mode == lockCaller) {
						p.reportf(call.Pos(),
							"call to %s while %s is held (at %s): the callee's summary proves it acquires %s itself — self-deadlock through the call",
							fn.Name(), chain, p.at(v.pos), chain)
					}
				}
			}
		}
		if p.durable {
			for _, prim := range durablePrimitives {
				if isMethod(fn, prim.pkg, prim.recv, prim.name) {
					p.checkDurable(s, call.Pos(), shortPkg(prim.pkg)+"."+prim.recv+"."+prim.name)
					break
				}
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
			chains = append(chains, exprKey(p.pkg.pkgFset(), recv))
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
				p.reportf(pos, "Lock of %s, which is already write-locked (at %s): self-deadlock", chain, p.at(v.pos))
			case lockRead:
				p.reportf(pos, "Lock of %s while read-locked (at %s): lock upgrade deadlocks", chain, p.at(v.pos))
			case lockCaller:
				p.reportf(pos, "Lock of %s, which the caller already holds per the %q annotation: self-deadlock", chain, "Caller holds mu.")
			}
		}
		return s.with(chain, lockVal{mode: lockWrite, deferred: v.deferred, pos: pos})
	case "RLock":
		if tracked && v.mode == lockWrite {
			p.reportf(pos, "RLock of %s while write-locked (at %s): self-deadlock", chain, p.at(v.pos))
		}
		return s.with(chain, lockVal{mode: lockRead, deferred: v.deferred, pos: pos})
	case "Unlock":
		if tracked {
			switch v.mode {
			case lockRead:
				p.reportf(pos, "Unlock of %s, which is read-locked (at %s): use RUnlock", chain, p.at(v.pos))
			case lockFree:
				p.reportf(pos, "Unlock of %s, which is not held on this path", chain)
			}
		}
		return s.with(chain, lockVal{mode: lockFree, deferred: v.deferred})
	case "RUnlock":
		if tracked {
			switch v.mode {
			case lockWrite:
				p.reportf(pos, "RUnlock of %s, which is write-locked (at %s): use Unlock", chain, p.at(v.pos))
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
			p.reportf(pos, "return with %s still held (locked at %s): missing unlock on this path", chain, p.at(v.pos))
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

func (p *lockProblem) at(pos token.Pos) string {
	if !pos.IsValid() {
		return "entry"
	}
	pp := p.pkg.pkgFset().Position(pos)
	return shortPkg(pp.Filename) + ":" + strconv.Itoa(pp.Line)
}
