package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockCheck enforces the repo's annotation-driven lock discipline. The
// canonical grammar is a doc-comment sentence "Caller holds mu." on every
// function that requires its receiver's mutex:
//
//   - A call to an annotated function is legal only from a context that
//     holds the lock: the caller is itself annotated, or the receiver's
//     mu is held (Lock or RLock) on the path reaching the call.
//   - A method named *Locked must carry the annotation, so the naming
//     convention and the machine-checked one cannot drift apart.
//   - A call made while the receiver's write lock is definitely held,
//     into a method that acquires the same receiver's mu, is a
//     self-deadlock — sync.Mutex being non-reentrant.
//
// Since PR 5 the held/not-held question is answered by the same
// path-sensitive lock lattice lockflow solves (see lockflow.go), not by
// source positions: a lock released before the call no longer counts as
// held, and a lock held only on some paths (lockSome) gets the benefit of
// the doubt. The analysis remains intra-procedural and keys receivers by
// selector chain ("a", "a.pyr"); calls through function values or across
// goroutines are out of scope. Function literals inherit their enclosing
// declaration's annotation, matching how the repo uses short literals
// under a held lock.
type LockCheck struct {
	funcs map[*types.Func]*lockFuncInfo
}

// callerHoldsRE tolerates historical drift ("Caller must hold mu") and,
// via whitespace normalization, doc-comment line wrapping; the
// normalization satellite keeps the repo itself on the canonical spelling.
var callerHoldsRE = regexp.MustCompile(`(?i)\bcaller(s)? (holds?|must hold) mu\b`)

// hasCallerHolds matches the annotation in a doc comment, joining wrapped
// lines so "Caller holds\nmu." still counts.
func hasCallerHolds(doc string) bool {
	return callerHoldsRE.MatchString(strings.Join(strings.Fields(doc), " "))
}

type lockFuncInfo struct {
	recvName      string
	callerHolds   bool
	acquiresOwnMu bool // the body locks its own receiver's mu field
}

func (*LockCheck) Name() string { return "lockcheck" }
func (*LockCheck) Doc() string {
	return `functions annotated "Caller holds mu." may only be called while holding mu`
}

func (lc *LockCheck) Prepare(prog *Program) {
	lc.funcs = map[*types.Func]*lockFuncInfo{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &lockFuncInfo{
					recvName:    recvIdentName(fd),
					callerHolds: hasCallerHolds(fd.Doc.Text()),
				}
				fi.acquiresOwnMu = acquiresOwnMu(pkg, fd, fi.recvName)
				lc.funcs[obj] = fi
			}
		}
	}
}

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
			exprKey(pkg.pkgFset(), recv) == recvName+".mu" {
			found = true
		}
		return !found
	})
	return found
}

// syncCall recognises a method call into package sync — mu.Lock(),
// a.mu.RUnlock(), wg.Add(1) — and returns the method name and the receiver
// expression, whose exprKey is the lock chain. op is "" for any other call.
func syncCall(pkg *Package, call *ast.CallExpr) (op string, recv ast.Expr) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	return fn.Name(), sel.X
}

func isMutexType(t types.Type) bool {
	n := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" &&
		(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex")
}

func (lc *LockCheck) Check(prog *Program, pkg *Package, rep *Reporter) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fi := lc.funcs[obj]; fi != nil {
				lc.checkNaming(pkg, fd, fi, rep)
			}
		}
	}
	for _, fb := range packageBodies(pkg) {
		lc.checkCalls(pkg, fb, rep)
	}
}

// checkNaming: *Locked methods of mutex-bearing structs must carry the
// canonical annotation, so lockcheck can key off it.
func (lc *LockCheck) checkNaming(pkg *Package, fd *ast.FuncDecl, fi *lockFuncInfo, rep *Reporter) {
	name := fd.Name.Name
	if fi.callerHolds || len(name) <= len("Locked") ||
		name[len(name)-len("Locked"):] != "Locked" || fd.Recv == nil {
		return
	}
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	n := recvNamed(obj)
	if n == nil || !structHasMutex(n) {
		return
	}
	rep.Reportf("lockcheck", fd.Name.Pos(),
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

// checkCalls solves the lock lattice for one body and replays it, flagging
// (1) calls to annotated functions on paths that provably do not hold the
// lock and (2) calls into lock-acquiring methods of a receiver whose
// write lock is definitely held at the call — self-deadlock.
func (lc *LockCheck) checkCalls(pkg *Package, fb funcBody, rep *Reporter) {
	// Literals inherit the enclosing declaration's annotation status; the
	// repo's literals run short critical-section bodies, not goroutines
	// that outlive the lock.
	var callerHolds bool
	if fb.decl != nil {
		if obj, ok := pkg.Info.Defs[fb.decl.Name].(*types.Func); ok {
			if fi := lc.funcs[obj]; fi != nil {
				callerHolds = fi.callerHolds
			}
		}
	}
	p := &lockProblem{pkg: pkg, entry: entryLockState(funcBody{decl: fb.decl, body: fb.body})}
	sol := Solve[lockState](BuildCFG(fb.body), p)
	sol.Replay(p, func(n ast.Node, s lockState) {
		inspectNoFuncLit(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pkg.Info, call)
			if callee == nil {
				return true
			}
			ci := lc.funcs[callee]
			if ci == nil {
				return true
			}
			recvKey := ""
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				recvKey = exprKey(pkg.pkgFset(), sel.X)
			}
			muState := s[recvKey+".mu"]

			// (1) Annotated callee: the caller must hold the lock here.
			if ci.callerHolds && !callerHolds && !muState.mode.held() && muState.mode != lockSome {
				rep.Reportf("lockcheck", call.Pos(),
					"call to %s, which requires %q, but %s does not hold %s.mu on this path",
					callee.Name(), "Caller holds mu.", describeBody(fb), orReceiver(recvKey))
			}

			// (2) Self-deadlock: write lock definitely held at a call into
			// a method that acquires the same receiver's mu.
			if ci.acquiresOwnMu && recvKey != "" && muState.mode == lockWrite {
				rep.Reportf("lockcheck", call.Pos(),
					"%s holds %s.mu and calls %s, which acquires %s.mu: self-deadlock",
					describeBody(fb), recvKey, callee.Name(), recvKey)
			}
			return true
		})
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

// pkgFset renders expression keys without threading the program through
// every helper; positions only feed fallback keys for complex expressions.
func (p *Package) pkgFset() *token.FileSet { return p.fset }
