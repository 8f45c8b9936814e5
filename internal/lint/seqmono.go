package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SeqMono enforces the allocator discipline behind logical monotonicity:
// every sequence number stamped into a constructed fact must come from
// the allocator (tuple.SeqSource.Next), and each allocation
// stamps at most one fact. Concretely, at every fact-construction sink —
// a tuple.Fact composite literal with a Seq field, or a call to a
// Fact(seq tuple.Seq) constructor such as the relation row builders — the
// rule reports when the seqno expression is:
//
//   - a literal or constant expression (seqnos are never invented),
//   - arithmetic or a tuple.Seq conversion (seqnos are opaque tickets,
//     not numbers to compute with),
//   - a SeqSource.Current() result (Current is a read-side watermark;
//     stamping it would reissue an already-used seqno), or
//   - a variable that is untrusted per the above, or that already
//     stamped a fact on some path reaching this sink — including via a
//     loop back edge, which is how "one seqno, many facts" bugs actually
//     ship.
//
// Field reads (f.Seq), index expressions (seqs[i] from a batch),
// and other call results stay trusted: decoders and accessors hand back
// seqnos that were allocated once upstream. The tuple package itself is
// exempt — it defines the allocator and reconstructs existing facts when
// decoding. The lattice is two bits per Seq-typed variable (may-be-
// untrusted, may-have-stamped), joined by OR.
type SeqMono struct{}

func (*SeqMono) Name() string { return "seqmono" }
func (*SeqMono) Doc() string {
	return "fact seqnos must come from the allocator: no literals, no arithmetic, no reuse across facts"
}

// seqExemptPkgs define the allocator or rebuild facts from verified
// bytes; the discipline is about minting new facts above them.
var seqExemptPkgs = map[string]bool{
	"purity/internal/tuple": true,
}

func (sm *SeqMono) Check(prog *Program, pkg *Package, rep *Reporter) {
	if seqExemptPkgs[pkg.Path] {
		return
	}
	for _, fb := range packageBodies(pkg) {
		p := &seqProblem{pkg: pkg}
		cfg := BuildCFG(fb.body)
		sol := Solve[seqState](cfg, p)
		p.report = func(pos token.Pos, format string, args ...any) {
			rep.Reportf("seqmono", pos, format, args...)
		}
		sol.Replay(p, nil)
		p.report = nil
	}
}

type seqFlags uint8

const (
	seqUntrusted seqFlags = 1 << iota // may not originate from the allocator
	seqUsed                           // may already have stamped a fact
)

// seqState maps Seq-typed objects to their flags; absent means trusted
// and unused.
type seqState map[types.Object]seqFlags

func (s seqState) with(obj types.Object, f seqFlags) seqState {
	if s[obj] == f {
		return s
	}
	out := make(seqState, len(s)+1)
	for k, v := range s {
		out[k] = v
	}
	if f == 0 {
		delete(out, obj)
	} else {
		out[obj] = f
	}
	return out
}

type seqProblem struct {
	pkg    *Package
	report func(pos token.Pos, format string, args ...any)
}

func (p *seqProblem) reportf(pos token.Pos, format string, args ...any) {
	if p.report != nil {
		p.report(pos, format, args...)
	}
}

func (p *seqProblem) Entry() seqState                    { return seqState{} }
func (p *seqProblem) Refine(_ Edge, s seqState) seqState { return s }

func (p *seqProblem) Join(a, b seqState) seqState {
	out := make(seqState, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func (p *seqProblem) Equal(a, b seqState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func (p *seqProblem) Transfer(n ast.Node, s seqState) seqState {
	// Sinks first, in source order; then the statement's binding effect.
	inspectNoFuncLit(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CompositeLit:
			if e := factSeqElt(p.pkg, m); e != nil {
				s = p.checkSeqExpr(e, s)
			}
		case *ast.CallExpr:
			if e := factCallSeqArg(p.pkg, m); e != nil {
				s = p.checkSeqExpr(e, s)
			}
		}
		return true
	})
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) {
					// Extra lhs of a multi-value call: results of calls
					// are trusted allocations, nothing to record.
					break
				}
				obj := identObj(p.pkg, l)
				if obj == nil || !isSeqType(obj.Type()) {
					continue
				}
				s = s.with(obj, p.evalSeqFlags(n.Rhs[i], s))
			}
		} else {
			// Compound assignment (seq += k) is arithmetic.
			for _, l := range n.Lhs {
				if obj := identObj(p.pkg, l); obj != nil && isSeqType(obj.Type()) {
					s = s.with(obj, s[obj]|seqUntrusted)
				}
			}
		}
	case *ast.IncDecStmt:
		if obj := identObj(p.pkg, n.X); obj != nil && isSeqType(obj.Type()) {
			s = s.with(obj, s[obj]|seqUntrusted)
		}
	}
	return s
}

// checkSeqExpr reports on a seqno reaching a fact-construction sink and
// marks variables as having stamped a fact.
func (p *seqProblem) checkSeqExpr(e ast.Expr, s seqState) seqState {
	if tv, ok := p.pkg.Info.Types[e]; ok && tv.Value != nil {
		p.reportf(e.Pos(), "literal seqno in a fact: sequence numbers must come from the allocator (tuple.SeqSource.Next)")
		return s
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr, *ast.UnaryExpr:
		p.reportf(e.Pos(), "seqno arithmetic in a fact construction: allocate with Next instead of computing seqnos")
	case *ast.CallExpr:
		if tv, ok := p.pkg.Info.Types[e.Fun]; ok && tv.IsType() {
			p.reportf(e.Pos(), "seqno constructed by conversion, not by the allocator: use tuple.SeqSource.Next")
			return s
		}
		if fn := calleeFunc(p.pkg.Info, e); fn != nil && isMethod(fn, "purity/internal/tuple", "SeqSource", "Current") {
			p.reportf(e.Pos(), "fact stamped with SeqSource.Current(): Current is a watermark read, the seqno was already issued; use Next")
		}
	case *ast.Ident:
		obj := p.pkg.Info.ObjectOf(e)
		if obj == nil {
			return s
		}
		f := s[obj]
		switch {
		case f&seqUntrusted != 0:
			p.reportf(e.Pos(), "seqno %s may not originate from the allocator on this path: allocate with Next", e.Name)
		case f&seqUsed != 0:
			p.reportf(e.Pos(), "seqno %s already stamped a fact on a path to here: seqnos are single-use, allocate a fresh one", e.Name)
		}
		return s.with(obj, f|seqUsed)
	}
	return s
}

// evalSeqFlags classifies the right-hand side of a Seq assignment.
func (p *seqProblem) evalSeqFlags(e ast.Expr, s seqState) seqFlags {
	if tv, ok := p.pkg.Info.Types[e]; ok && tv.Value != nil {
		return seqUntrusted
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr, *ast.UnaryExpr:
		return seqUntrusted
	case *ast.CallExpr:
		if tv, ok := p.pkg.Info.Types[e.Fun]; ok && tv.IsType() {
			return seqUntrusted
		}
		if fn := calleeFunc(p.pkg.Info, e); fn != nil && isMethod(fn, "purity/internal/tuple", "SeqSource", "Current") {
			return seqUntrusted
		}
		return 0 // Next, decoders: fresh trusted allocations
	case *ast.Ident:
		if obj := p.pkg.Info.ObjectOf(e); obj != nil {
			return s[obj] // copying a seqno copies its history
		}
	}
	return 0
}

// factSeqElt returns the Seq element of a tuple.Fact composite literal,
// or nil when the literal has none (the zero Fact return value).
func factSeqElt(pkg *Package, lit *ast.CompositeLit) ast.Expr {
	t := pkg.Info.TypeOf(lit)
	n := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil ||
		n.Obj().Pkg().Path() != "purity/internal/tuple" || n.Obj().Name() != "Fact" {
		return nil
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Seq" {
				return kv.Value
			}
		}
	}
	// Positional literal: Seq is Fact's first field.
	if len(lit.Elts) > 0 {
		if _, ok := lit.Elts[0].(*ast.KeyValueExpr); !ok {
			return lit.Elts[0]
		}
	}
	return nil
}

// factCallSeqArg returns the tuple.Seq argument of a call to a
// constructor named Fact (the relation row builders), or nil.
func factCallSeqArg(pkg *Package, call *ast.CallExpr) ast.Expr {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil || fn.Name() != "Fact" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if isSeqType(sig.Params().At(i).Type()) {
			return call.Args[i]
		}
	}
	return nil
}

func isSeqType(t types.Type) bool {
	n := derefNamed(t)
	return n != nil && n.Obj().Pkg() != nil &&
		n.Obj().Pkg().Path() == "purity/internal/tuple" && n.Obj().Name() == "Seq"
}
