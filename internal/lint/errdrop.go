package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop forbids silently discarded errors: a statement-level call whose
// results include an error, or an assignment that blanks every result of
// such a call (`_ = f()`, `_, _ = f()`). In a storage engine a swallowed
// error is a corruption waiting for recovery to find; errors propagate, or
// feed a telemetry counter, or carry an explicit //lint:ignore with the
// reason they are safe to drop.
//
// The allowlist covers calls that cannot meaningfully fail: fmt printing
// to stdout (CLI output; scripts/check.sh keeps it out of internal/
// packages), and writes to in-memory sinks — bytes.Buffer, strings.Builder,
// hash.Hash implementations — whose Write methods are documented
// infallible or defer their error to a later checked call.
type ErrDrop struct{}

func (*ErrDrop) Name() string { return "errdrop" }
func (*ErrDrop) Doc() string {
	return "no discarded error returns (`_ =` or bare call) outside the allowlist"
}

// errdropAllowFuncs are package-level functions whose error result may be
// discarded, by full path.
var errdropAllowFuncs = map[string]bool{
	"fmt.Print":   true,
	"fmt.Printf":  true,
	"fmt.Println": true,
}

// errdropAllowRecvPkgs: methods on types from these packages never return
// errors worth checking (in-memory sinks and hashes).
var errdropAllowRecvs = map[methodRef]bool{
	{"bytes", "Buffer", ""}:    true,
	{"strings", "Builder", ""}: true,
	{"hash", "Hash", ""}:       true,
	{"hash", "Hash32", ""}:     true,
	{"hash", "Hash64", ""}:     true,
}

// errdropFprintSinks: fmt.Fprint* with a first argument of one of these
// types is writing to an in-memory or flush-checked sink.
var errdropFprintSinks = map[methodRef]bool{
	{"bytes", "Buffer", ""}:          true,
	{"strings", "Builder", ""}:       true,
	{"text/tabwriter", "Writer", ""}: true,
}

func (ed *ErrDrop) Check(prog *Program, pkg *Package, rep *Reporter) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					ed.checkCall(pkg, call, "result of %s discarded by calling it as a statement", rep)
				}
			case *ast.AssignStmt:
				ed.checkAssign(pkg, n, rep)
			}
			return true
		})
	}
}

// checkAssign flags assignments whose left side is all blanks and whose
// single right side is an error-returning call.
func (ed *ErrDrop) checkAssign(pkg *Package, as *ast.AssignStmt, rep *Reporter) {
	if len(as.Rhs) != 1 {
		return
	}
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return
		}
	}
	if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
		ed.checkCall(pkg, call, "error from %s discarded with a blank assignment", rep)
	}
}

func (ed *ErrDrop) checkCall(pkg *Package, call *ast.CallExpr, format string, rep *Reporter) {
	if !callReturnsError(pkg.Info, call) {
		return
	}
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return // function values, builtins: out of scope
	}
	name := fn.Name()
	if recv := recvNamed(fn); recv != nil {
		if recv.Obj().Pkg() != nil &&
			errdropAllowRecvs[methodRef{recv.Obj().Pkg().Path(), recv.Obj().Name(), ""}] {
			return
		}
		name = recv.Obj().Name() + "." + name
	} else if fn.Pkg() != nil {
		full := fn.Pkg().Path() + "." + fn.Name()
		if errdropAllowFuncs[full] {
			return
		}
		if isFprintToSink(pkg.Info, full, call) {
			return
		}
		name = shortPkg(fn.Pkg().Path()) + "." + fn.Name()
	}
	rep.Reportf("errdrop", call.Pos(), format+": propagate it, count it, or //lint:ignore errdrop with a reason", name)
}

func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.IsType() {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(tv.Type)
	}
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// isFprintToSink allows fmt.Fprint* when the destination is (a) an
// in-memory or flush-checked sink type, (b) statically just an io.Writer —
// the report-writer idiom, where the callee cannot act on a write error
// and the concrete writer's owner checks at flush or close — or (c) an
// *os.File, the CLI-output case, same class as fmt.Printf. Writes through
// a concrete buffering or network writer stay flagged.
func isFprintToSink(info *types.Info, full string, call *ast.CallExpr) bool {
	switch full {
	case "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln":
	default:
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	t := info.Types[call.Args[0]].Type
	if _, ok := t.Underlying().(*types.Interface); ok {
		return true
	}
	n := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	ref := methodRef{n.Obj().Pkg().Path(), n.Obj().Name(), ""}
	return errdropFprintSinks[ref] || ref == methodRef{"os", "File", ""}
}
