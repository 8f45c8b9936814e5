package lint

// ConnGuard enforces the availability discipline the server's idle/write
// timeouts exist for (§5 of the paper, PR 8's wedge class): every read or
// write of a connection-like value must be dominated by a matching
// Set{Read,Write}Deadline on EVERY path reaching it. A read with no
// deadline parks its goroutine until the peer deigns to speak — and with
// the goroutine, whatever admission slots and windows it holds.
//
// The check is interprocedural, built on the summary layer (summary.go):
//
//   - Each function body is solved as a forward must-analysis over its
//     CFG: per selector chain, which deadline bits (read/write) are armed
//     on ALL paths. Joins intersect — "armed on one branch only" counts
//     as unarmed, because the unarmed branch is the one that wedges.
//   - A use of a *parameter* (io.Reader/io.Writer/net.Conn-typed) with a
//     missing bit is not reported locally: it floats into the function's
//     summary and is checked at every call site, where the concrete
//     argument is known. wire.ReadTaggedFrame(r io.Reader) therefore
//     reports at the wedge-prone call that hands it a bare conn, not
//     inside wire.
//   - A call to a module function arms whatever its summary proves it
//     arms on every return path (server.touchIdle arms the read bit), so
//     helpers participate without annotations.
//   - A use of a non-parameter chain with a missing bit reports only when
//     the chain's static type can actually carry a deadline (it has
//     SetReadDeadline) — reads from bytes.Buffer and friends stay silent.
//
// Deadline-like-ness is structural (the SetReadDeadline(time.Time) error
// method), so net.Conn, *net.TCPConn, the chaos wrapper, and fixture fakes
// are all covered without naming any of them. Arming with the zero
// time.Time{} is Go's "disarm" and clears the bit. Recursive functions
// collapse to a claim-free summary (top): no arming is trusted, no use is
// floated — lossy toward silence, like every join in this package.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// deadlineBits is the armed-deadline lattice element: a set over
// {read, write}.
type deadlineBits uint8

const (
	armRead deadlineBits = 1 << iota
	armWrite
)

func (b deadlineBits) verb() string {
	if b == armWrite {
		return "write"
	}
	return "read"
}

// connUse is one unguarded read/write: where, which deadline it needed,
// and a rendering of what the use was ("c.conn.Read", "io.ReadFull(r)").
type connUse struct {
	bits  deadlineBits
	pos   token.Pos
	what  string
	chain string
}

// connSummary is one function's deadline effects.
type connSummary struct {
	// arms maps parameter index → deadline bits the body arms on every
	// return path, so callers' states advance across the call.
	arms map[int]deadlineBits
	// floats maps parameter index → unguarded uses of that parameter,
	// checked (and reported) at each call site against the argument.
	floats map[int][]connUse
	// locals are unguarded uses of deadline-capable non-parameter chains:
	// the report sites.
	locals []connUse
}

// computeConnSummaries fills in funcSummary.conn for every node, callees
// before callers (the call site of a module function consults its
// summary). markRecursion already collapsed every cycle member to top, so
// the DFS below always finds its non-recursive callees finished.
func computeConnSummaries(s *summaries) {
	state := map[funcNode]uint8{} // 0 unvisited, 1 visiting, 2 done
	var visit func(n funcNode)
	visit = func(n funcNode) {
		gf := s.cg.funcs[n]
		if gf == nil || state[n] != 0 {
			return
		}
		state[n] = 1
		for _, c := range gf.callees {
			visit(c)
		}
		state[n] = 2
		if sum := s.by[n]; !sum.top {
			sum.conn = connAnalyze(s, gf)
		}
	}
	for _, n := range s.cg.order {
		visit(n)
	}
}

// trackedParams maps this body's io.Reader/io.Writer/conn-like parameter
// names to their indices — the chains whose unguarded uses float.
func trackedParams(gf *graphFunc) map[string]int {
	var fields *ast.FieldList
	if gf.fb.lit != nil {
		fields = gf.fb.lit.Type.Params
	} else {
		fields = gf.fb.decl.Type.Params
	}
	out := map[string]int{}
	if fields == nil {
		return out
	}
	i := 0
	for _, f := range fields.List {
		names := f.Names
		if len(names) == 0 {
			i++ // unnamed parameter still occupies an argument slot
			continue
		}
		for _, name := range names {
			if obj := gf.pkg.Info.Defs[name]; obj != nil &&
				(readerLike(obj.Type()) || writerLike(obj.Type())) {
				out[name.Name] = i
			}
			i++
		}
	}
	return out
}

func connAnalyze(s *summaries, gf *graphFunc) *connSummary {
	p := &connProblem{sums: s, gf: gf, params: trackedParams(gf)}
	cfg := BuildCFG(gf.fb.body)
	sol := Solve[connState](cfg, p)

	cs := &connSummary{arms: map[int]deadlineBits{}, floats: map[int][]connUse{}}
	p.record = func(u connUse, t types.Type) {
		if i, ok := p.params[u.chain]; ok {
			for _, have := range cs.floats[i] {
				if have.bits == u.bits {
					return
				}
			}
			cs.floats[i] = append(cs.floats[i], u)
			return
		}
		if deadlineable(t) {
			cs.locals = append(cs.locals, u)
		}
	}
	sol.Replay(p, nil)
	p.record = nil

	// arms: intersection over every normal exit. Panic edges are excluded
	// (the caller does not continue past a panicking call); a body with no
	// normal exit at all never returns, so its claims are vacuous and it
	// may claim everything.
	var exit *connState
	for _, blk := range cfg.Blocks {
		if !sol.Reached(blk) {
			continue
		}
		for _, e := range blk.Succs {
			if e.Kind != EdgeReturn && e.Kind != EdgeImplicitReturn {
				continue
			}
			out := sol.Out[blk]
			if exit == nil {
				cp := out.clone()
				exit = &cp
			} else {
				*exit = p.Join(*exit, out)
			}
		}
	}
	for name, i := range p.params {
		if exit == nil {
			cs.arms[i] = armRead | armWrite
		} else if bits := (*exit)[name]; bits != 0 {
			cs.arms[i] = bits
		}
	}
	return cs
}

// --- The dataflow problem ----------------------------------------------

// connState maps selector chain → armed deadline bits. Absent means
// unarmed; only nonzero entries are stored.
type connState map[string]deadlineBits

func (s connState) clone() connState {
	out := make(connState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

type connProblem struct {
	sums   *summaries
	gf     *graphFunc
	params map[string]int
	// record fires once per unguarded use during Replay (nil while
	// solving), with the use and the chain's static type.
	record func(u connUse, t types.Type)
}

func (p *connProblem) Entry() connState                     { return connState{} }
func (p *connProblem) Refine(_ Edge, s connState) connState { return s }

func (p *connProblem) Join(a, b connState) connState {
	out := connState{}
	for k, av := range a {
		if bv := b[k] & av; bv != 0 {
			out[k] = bv
		}
	}
	return out
}

func (p *connProblem) Equal(a, b connState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if b[k] != av {
			return false
		}
	}
	return true
}

func (p *connProblem) Transfer(n ast.Node, s connState) connState {
	inspectNoFuncLit(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			s = p.applyCall(call, s)
		}
		return true
	})
	return s
}

// ioUses models the stdlib I/O helpers the repo routes reads and writes
// through: which arguments they read from or write to.
var ioUses = map[string][]struct {
	arg  int
	bits deadlineBits
}{
	"io.ReadFull":           {{0, armRead}},
	"io.ReadAll":            {{0, armRead}},
	"io.ReadAtLeast":        {{0, armRead}},
	"io.Copy":               {{0, armWrite}, {1, armRead}},
	"io.CopyN":              {{0, armWrite}, {1, armRead}},
	"io.CopyBuffer":         {{0, armWrite}, {1, armRead}},
	"io.WriteString":        {{0, armWrite}},
	"encoding/binary.Read":  {{0, armRead}},
	"encoding/binary.Write": {{0, armWrite}},
}

func (p *connProblem) applyCall(call *ast.CallExpr, s connState) connState {
	info := p.gf.pkg.Info
	fset := p.gf.pkg.pkgFset()

	// Direct method calls on the value: deadline arming, Read, Write.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := info.Selections[sel]; isSel {
			chain := exprKey(fset, sel.X)
			recvT := typeOfExpr(info, sel.X)
			switch sel.Sel.Name {
			case "SetDeadline", "SetReadDeadline", "SetWriteDeadline":
				if len(call.Args) == 1 && isTimeArg(info, call.Args[0]) {
					bits := armRead | armWrite
					switch sel.Sel.Name {
					case "SetReadDeadline":
						bits = armRead
					case "SetWriteDeadline":
						bits = armWrite
					}
					if isZeroTime(info, call.Args[0]) {
						return s.withoutBits(chain, bits) // time.Time{} disarms
					}
					return s.withBits(chain, bits)
				}
			case "Read":
				if readerLike(recvT) {
					s = p.checkUse(s, recvT, connUse{
						bits: armRead, pos: call.Pos(), chain: chain,
						what: chain + ".Read"})
				}
			case "Write":
				if writerLike(recvT) {
					s = p.checkUse(s, recvT, connUse{
						bits: armWrite, pos: call.Pos(), chain: chain,
						what: chain + ".Write"})
				}
			}
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return s
	}

	// Stdlib I/O helpers: uses of their reader/writer arguments.
	if uses, ok := ioUses[fn.Pkg().Path()+"."+fn.Name()]; ok {
		for _, iu := range uses {
			if iu.arg >= len(call.Args) {
				continue
			}
			arg := call.Args[iu.arg]
			chain := exprKey(fset, arg)
			s = p.checkUse(s, typeOfExpr(info, arg), connUse{
				bits: iu.bits, pos: call.Pos(), chain: chain,
				what: fmt.Sprintf("%s.%s(%s)", fn.Pkg().Name(), fn.Name(), chain)})
		}
		return s
	}

	// Module functions: check floated uses against the arguments, then
	// apply the callee's proven arming.
	if !moduleFunc(fn, p.sums.prog.ModPath) {
		return s
	}
	sum := p.sums.ofFunc(fn)
	if sum == nil || sum.conn == nil {
		return s
	}
	for i := 0; i < len(call.Args); i++ {
		for _, u := range sum.conn.floats[i] {
			arg := call.Args[i]
			chain := exprKey(fset, arg)
			s = p.checkUse(s, typeOfExpr(info, arg), connUse{
				bits: u.bits, pos: call.Pos(), chain: chain,
				what: fmt.Sprintf("%s(%s) (%s inside)", funcDisplay(fn), chain, u.what)})
		}
	}
	for i := 0; i < len(call.Args); i++ {
		if bits := sum.conn.arms[i]; bits != 0 {
			s = s.withBits(exprKey(fset, call.Args[i]), bits)
		}
	}
	return s
}

// checkUse records a use whose required bits are not all armed. The state
// is unchanged either way: an unguarded read does not arm anything.
func (p *connProblem) checkUse(s connState, t types.Type, u connUse) connState {
	if s[u.chain]&u.bits == u.bits {
		return s
	}
	if p.record != nil {
		p.record(u, t)
	}
	return s
}

func (s connState) withBits(chain string, bits deadlineBits) connState {
	out := s.clone()
	out[chain] |= bits
	return out
}

func (s connState) withoutBits(chain string, bits deadlineBits) connState {
	out := s.clone()
	if v := out[chain] &^ bits; v != 0 {
		out[chain] = v
	} else {
		delete(out, chain)
	}
	return out
}

// --- Type predicates ----------------------------------------------------

func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func methodOf(t types.Type, name string) *types.Signature {
	if t == nil {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

// readerLike: t has Read([]byte) (int, error) — io.Reader shaped.
func readerLike(t types.Type) bool { return hasRWMethod(t, "Read") }

// writerLike: t has Write([]byte) (int, error) — io.Writer shaped.
func writerLike(t types.Type) bool { return hasRWMethod(t, "Write") }

func hasRWMethod(t types.Type, name string) bool {
	sig := methodOf(t, name)
	return sig != nil && sig.Params().Len() == 1 && sig.Results().Len() == 2 &&
		isByteSlice(sig.Params().At(0).Type())
}

// deadlineable: t can carry a read deadline (it has SetReadDeadline,
// time.Time-parameterized) — net.Conn, *net.TCPConn, chaos wrappers,
// os.File, fixture fakes.
func deadlineable(t types.Type) bool {
	sig := methodOf(t, "SetReadDeadline")
	return sig != nil && sig.Params().Len() == 1 && isTimeType(sig.Params().At(0).Type())
}

func isTimeType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "time" && n.Obj().Name() == "Time"
}

func isTimeArg(info *types.Info, e ast.Expr) bool {
	return isTimeType(typeOfExpr(info, e))
}

// isZeroTime matches the literal time.Time{} — Go's disarm-the-deadline
// idiom. A zero value reached through a variable is not tracked (lossy:
// the deadline stays "armed", toward silence).
func isZeroTime(info *types.Info, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	return ok && len(lit.Elts) == 0 && isTimeType(typeOfExpr(info, e))
}

func funcDisplay(fn *types.Func) string {
	if n := recvNamed(fn); n != nil {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// --- The rule -----------------------------------------------------------

// ConnGuard reports the cached unguarded uses for every body in scope.
type ConnGuard struct {
	// Scope restricts reporting to packages under these module-relative
	// directories; nil means every requested package (fixture mode).
	Scope []string
}

func (*ConnGuard) Name() string { return "connguard" }
func (*ConnGuard) Doc() string {
	return "every conn read/write must be dominated by a matching Set*Deadline on all paths, checked across calls via summaries"
}

func (cg *ConnGuard) Prepare(prog *Program) { prog.summaries() }

func (cg *ConnGuard) Check(prog *Program, pkg *Package, rep *Reporter) {
	if !inScope(cg.Scope, pkg.RelDir) {
		return
	}
	sums := prog.summaries()
	for _, fb := range packageBodies(pkg) {
		sum := sums.of(bodyNode(pkg, fb))
		if sum == nil || sum.conn == nil {
			continue
		}
		for _, u := range sum.conn.locals {
			rep.Reportf("connguard", u.pos,
				"%s with no %s deadline armed on every path reaching it: a peer that stops responding wedges this goroutine (and any admission slots it holds) forever",
				u.what, u.bits.verb())
		}
	}
}

// inScope reports whether a package's module-relative directory falls
// under one of the scope roots. A nil scope means everywhere.
func inScope(scope []string, relDir string) bool {
	if scope == nil {
		return true
	}
	for _, s := range scope {
		if relDir == s || (len(relDir) > len(s) && relDir[:len(s)] == s && relDir[len(s)] == '/') {
			return true
		}
	}
	return false
}
