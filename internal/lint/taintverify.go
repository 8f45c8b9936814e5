package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// TaintVerify encodes the verified-read discipline from PR 3: bytes read
// off flash are suspect until a CRC check vouches for them, so no decoder
// may run on a buffer that skipped verification. The rule is a forward
// dataflow over the CFG tracking, per local variable, whether it may hold
// unverified flash bytes.
//
// Sources (taint):
//   - the buffer argument of ssd.Device.ReadAt (the device writes into it)
//   - results of layout.Reader.ReadRange, core's Array.readSegment,
//     and pyramid's PageStore.ReadPage / MemStore.ReadPage
//
// Verifiers (clear taint; each checks a CRC internally and fails closed):
//   - layout's parseSegioTrailer / parseAUTrailer, frontier.Unmarshal
//   - a branch guarded by a CRC comparison: on the edge where
//     crcOf(buf) == want (or crc32.ChecksumIEEE/Checksum) holds, buf is
//     verified — this is what makes the rule path-sensitive, and it is
//     exactly the shape of layout's readShardVerified
//
// Sinks (report when a tainted buffer flows in):
//   - tuple.Decode / tuple.DecodeBatch
//   - pagecodec.Open
//   - cblock.Unpack
//   - pyramid.UnmarshalPatch
//
// Taint propagates through assignment, slicing, copy, append, and []byte
// conversions. The analysis is intra-procedural and ident-granular:
// struct fields and values returned to a caller are not tracked, so a
// helper that returns raw flash bytes should appear in the source list
// above. NVRAM reads are deliberately not sources — nvram.Records verifies
// each record's CRC before returning it.
type TaintVerify struct{}

func (*TaintVerify) Name() string { return "taintverify" }
func (*TaintVerify) Doc() string {
	return "buffers read from flash are tainted until CRC-verified; decoding tainted bytes is reported"
}

// taint function tables, by defining package / receiver / name. An empty
// recv means a package-level function.
var (
	taintSources = []methodRef{
		{"purity/internal/layout", "Reader", "ReadRange"},
		{"purity/internal/core", "Array", "readSegment"},
		{"purity/internal/pyramid", "PageStore", "ReadPage"},
		{"purity/internal/pyramid", "MemStore", "ReadPage"},
	}
	taintBufArgSources = []methodRef{
		{"purity/internal/ssd", "Device", "ReadAt"},
	}
	taintVerifiers = []methodRef{
		{"purity/internal/layout", "", "parseSegioTrailer"},
		{"purity/internal/layout", "", "parseAUTrailer"},
		{"purity/internal/frontier", "", "Unmarshal"},
	}
	taintSinks = []struct {
		fn  methodRef
		arg int // index of the decoded buffer argument
	}{
		{methodRef{"purity/internal/tuple", "", "Decode"}, 0},
		{methodRef{"purity/internal/tuple", "", "DecodeBatch"}, 0},
		{methodRef{"purity/internal/pagecodec", "", "Open"}, 1},
		{methodRef{"purity/internal/cblock", "", "Unpack"}, 0},
		{methodRef{"purity/internal/pyramid", "", "UnmarshalPatch"}, 0},
	}
)

// matchFunc extends isMethod to package-level functions (empty recv).
func matchFunc(fn *types.Func, ref methodRef) bool {
	if fn == nil || fn.Name() != ref.name {
		return false
	}
	if ref.recv != "" {
		return isMethod(fn, ref.pkg, ref.recv, ref.name)
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == ref.pkg
}

func (tv *TaintVerify) Check(prog *Program, pkg *Package, rep *Reporter) {
	for _, fb := range packageBodies(pkg) {
		p := &taintProblem{pkg: pkg}
		cfg := BuildCFG(fb.body)
		sol := Solve[taintState](cfg, p)
		p.report = func(pos token.Pos, format string, args ...any) {
			rep.Reportf("taintverify", pos, format, args...)
		}
		sol.Replay(p, nil)
		p.report = nil
	}
}

// taintState is the set of objects that may hold unverified flash bytes.
// Join is union: a buffer must be verified on every path into a sink.
type taintState map[types.Object]bool

func (s taintState) with(obj types.Object, tainted bool) taintState {
	if s[obj] == tainted {
		return s
	}
	out := maps.Clone(s)
	if tainted {
		out[obj] = true
	} else {
		delete(out, obj)
	}
	return out
}

type taintProblem struct {
	pkg    *Package
	report func(pos token.Pos, format string, args ...any)
}

func (p *taintProblem) reportf(pos token.Pos, format string, args ...any) {
	if p.report != nil {
		p.report(pos, format, args...)
	}
}

func (p *taintProblem) Entry() taintState { return taintState{} }

func (p *taintProblem) Join(a, b taintState) taintState {
	out := maps.Clone(a)
	maps.Copy(out, b)
	return out
}

func (p *taintProblem) Equal(a, b taintState) bool { return maps.Equal(a, b) }

func (p *taintProblem) Transfer(n ast.Node, s taintState) taintState {
	// Calls first, in source order: sources taint, verifiers clear, sinks
	// report. Then the statement's binding effect.
	inspectNoFuncLit(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		s = p.applyCall(call, s)
		return true
	})
	switch n := n.(type) {
	case *ast.AssignStmt:
		s = p.bind(n.Lhs, n.Rhs, s)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					s = p.bind(lhs, vs.Values, s)
				}
			}
		}
	}
	return s
}

// applyCall handles one call's taint effects (excluding result binding,
// which the assignment handling owns).
func (p *taintProblem) applyCall(call *ast.CallExpr, s taintState) taintState {
	// copy(dst, src): taint flows between buffers without an assignment.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if _, isFn := p.pkg.Info.Uses[id].(*types.Builtin); isFn && p.taintOf(call.Args[1], s) {
			if obj := rootIdentObj(p.pkg, call.Args[0]); obj != nil {
				return s.with(obj, true)
			}
		}
		return s
	}
	fn := calleeFunc(p.pkg.Info, call)
	if fn == nil {
		return s
	}
	for _, src := range taintBufArgSources {
		if matchFunc(fn, src) && len(call.Args) >= 2 {
			if obj := rootIdentObj(p.pkg, call.Args[1]); obj != nil {
				s = s.with(obj, true)
			}
			return s
		}
	}
	for _, v := range taintVerifiers {
		if matchFunc(fn, v) {
			for _, arg := range call.Args {
				if isByteSlice(p.pkg.Info.TypeOf(arg)) {
					if obj := rootIdentObj(p.pkg, arg); obj != nil {
						s = s.with(obj, false)
					}
				}
			}
			return s
		}
	}
	for _, sink := range taintSinks {
		if matchFunc(fn, sink.fn) && sink.arg < len(call.Args) {
			if p.taintOf(call.Args[sink.arg], s) {
				p.reportf(call.Pos(),
					"%s decodes unverified flash bytes: the buffer comes from a device read with no CRC check on this path",
					fn.Name())
			}
			return s
		}
	}
	return s
}

// bind applies an assignment's effect: left-hand identifiers take the
// taint of their right-hand expressions, with strong updates (assignment
// of a clean value launders the variable, matching Go semantics).
func (p *taintProblem) bind(lhs, rhs []ast.Expr, s taintState) taintState {
	if len(rhs) == 1 && len(lhs) > 1 {
		// Multi-value call: results of flash sources are tainted.
		tainted := false
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			tainted = p.flashSourceCall(call)
		}
		for _, l := range lhs {
			obj := identObj(p.pkg, l)
			if obj == nil {
				continue
			}
			s = s.with(obj, tainted && isByteSlice(obj.Type()))
		}
		return s
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		obj := identObj(p.pkg, l)
		if obj == nil {
			continue
		}
		s = s.with(obj, p.taintOf(rhs[i], s))
	}
	return s
}

func (p *taintProblem) flashSourceCall(call *ast.CallExpr) bool {
	fn := calleeFunc(p.pkg.Info, call)
	for _, src := range taintSources {
		if matchFunc(fn, src) {
			return true
		}
	}
	return false
}

// taintOf evaluates whether an expression's value may carry unverified
// flash bytes under state s.
func (p *taintProblem) taintOf(e ast.Expr, s taintState) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := p.pkg.Info.ObjectOf(e); obj != nil {
			return s[obj]
		}
	case *ast.SliceExpr:
		return p.taintOf(e.X, s)
	case *ast.IndexExpr:
		return p.taintOf(e.X, s)
	case *ast.StarExpr:
		return p.taintOf(e.X, s)
	case *ast.CallExpr:
		if p.flashSourceCall(e) {
			return true
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isFn := p.pkg.Info.Uses[id].(*types.Builtin); isFn {
				for _, arg := range e.Args {
					if p.taintOf(arg, s) {
						return true
					}
				}
				return false
			}
		}
		// A []byte(x) conversion preserves x's taint.
		if tv, ok := p.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return p.taintOf(e.Args[0], s)
		}
	}
	return false
}

// Refine is the verification edge: on the branch where a CRC comparison
// holds, the compared buffer is clean.
func (p *taintProblem) Refine(e Edge, s taintState) taintState {
	if e.Cond == nil {
		return s
	}
	return p.refineCond(e.Cond, e.CondTrue, s)
}

func (p *taintProblem) refineCond(c ast.Expr, truth bool, s taintState) taintState {
	switch c := ast.Unparen(c).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return p.refineCond(c.X, !truth, s)
		}
	case *ast.BinaryExpr:
		switch {
		case (c.Op == token.LAND && truth) || (c.Op == token.LOR && !truth):
			return p.refineCond(c.Y, truth, p.refineCond(c.X, truth, s))
		case (c.Op == token.EQL && truth) || (c.Op == token.NEQ && !truth):
			s = p.clearIfCRCArg(c.X, s)
			s = p.clearIfCRCArg(c.Y, s)
		}
	}
	return s
}

// clearIfCRCArg clears the buffer inside crcOf(buf) / crc32.*(buf) when
// that checksum was just compared for equality.
func (p *taintProblem) clearIfCRCArg(e ast.Expr, s taintState) taintState {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return s
	}
	fn := calleeFunc(p.pkg.Info, call)
	if fn == nil {
		return s
	}
	isCRC := (fn.Pkg() != nil && fn.Pkg().Path() == "hash/crc32") ||
		matchFunc(fn, methodRef{"purity/internal/layout", "", "crcOf"})
	if !isCRC {
		return s
	}
	for _, arg := range call.Args {
		if isByteSlice(p.pkg.Info.TypeOf(arg)) {
			if obj := rootIdentObj(p.pkg, arg); obj != nil {
				s = s.with(obj, false)
			}
		}
	}
	return s
}

// rootIdentObj unwraps slicing/indexing/derefs to the underlying
// identifier's object, or nil for anything more structured.
func rootIdentObj(pkg *Package, e ast.Expr) types.Object {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pkg.Info.ObjectOf(t)
		case *ast.SliceExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// identObj resolves a plain (non-blank) identifier to its object.
func identObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pkg.Info.ObjectOf(id)
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}
