package lint

import (
	"go/ast"
	"strings"
)

// CrashPointCheck keeps the crash sweep's coverage exhaustive (PR 2): a
// function that calls a durable-write primitive — an NVRAM record append,
// a drive write, a drive erase — must also hit a crashpoint, so the
// boundary is enumerable by the census-then-enumerate sweep. Without this
// rule a new durability boundary compiles, passes tests, and silently
// escapes every simulated power loss.
//
// The granularity is the enclosing function: at least one
// crashpoint.Registry.Hit call in the same body as the primitive call.
// Paths whose writes create no new durable commitment (inline repair of
// data reconstructable from parity, shard rewrites that precede the swap
// fact) suppress with //lint:ignore crashpointcheck and a reason.
type CrashPointCheck struct{}

// durablePrimitives are the module's power-loss boundaries: everything
// below these is simulated hardware, everything above is recoverable
// engine state.
var durablePrimitives = []methodRef{
	{"purity/internal/nvram", "Device", "Append"},
	{"purity/internal/ssd", "Device", "WriteAt"},
	{"purity/internal/ssd", "Device", "Erase"},
}

// crashHit is the fault-point the sweep arms.
var crashHit = methodRef{"purity/internal/crashpoint", "Registry", "Hit"}

// crashExemptPkgs defines the primitives and the registry itself; inside
// them the rule is vacuous.
var crashExemptPkgs = map[string]bool{
	"purity/internal/nvram":      true,
	"purity/internal/ssd":        true,
	"purity/internal/crashpoint": true,
}

func (*CrashPointCheck) Name() string { return "crashpointcheck" }
func (*CrashPointCheck) Doc() string {
	return "durable-write primitive calls need a crashpoint.Hit in the same function"
}

func (cc *CrashPointCheck) Check(prog *Program, pkg *Package, rep *Reporter) {
	if crashExemptPkgs[pkg.Path] {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var primCalls []*ast.CallExpr
			var primNames []string
			hits := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				if isMethod(fn, crashHit.pkg, crashHit.recv, crashHit.name) {
					hits++
					return true
				}
				for _, p := range durablePrimitives {
					if isMethod(fn, p.pkg, p.recv, p.name) {
						primCalls = append(primCalls, call)
						primNames = append(primNames, shortPkg(p.pkg)+"."+p.recv+"."+p.name)
						break
					}
				}
				return true
			})
			if hits > 0 {
				continue
			}
			for i, call := range primCalls {
				rep.Reportf("crashpointcheck", call.Pos(),
					"%s calls durable-write primitive %s but hits no crashpoint: the crash sweep cannot enumerate this boundary",
					describeFunc(fd), primNames[i])
			}
		}
	}
}

func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
