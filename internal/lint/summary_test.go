package lint

import (
	"go/ast"
	"go/types"
	"testing"
)

// loadSummaryFixture loads testdata/summary and returns the program, the
// fixture package, and the built summary table.
func loadSummaryFixture(t *testing.T) (*Program, *Package, *summaries) {
	t.Helper()
	prog := loadFixture(t, "summary")
	var pkg *Package
	for _, p := range prog.Pkgs {
		if p.Requested {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("fixture package not loaded")
	}
	return prog, pkg, prog.summaries()
}

// fixtureFunc resolves a package-level function or a method of a named
// type ("rec.Ping" or "ReadRec") to its *types.Func.
func fixtureFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	if dot := len(name); dot > 0 {
		for i := 0; i < len(name); i++ {
			if name[i] != '.' {
				continue
			}
			obj := pkg.Types.Scope().Lookup(name[:i])
			if obj == nil {
				t.Fatalf("type %s not found", name[:i])
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				t.Fatalf("%s is not a named type", name[:i])
			}
			for m := 0; m < named.NumMethods(); m++ {
				if fn := named.Method(m); fn.Name() == name[i+1:] {
					return fn
				}
			}
			t.Fatalf("method %s not found", name)
		}
	}
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("function %s not found", name)
	}
	return fn
}

// TestSummaryFixpointThroughRecursion: the lock fixpoint is exact around
// a cycle. Pong locks its own mu, and Ping inherits it through the
// own-receiver call edge.
func TestSummaryFixpointThroughRecursion(t *testing.T) {
	_, pkg, sums := loadSummaryFixture(t)
	if sum := sums.ofFunc(fixtureFunc(t, pkg, "rec.Pong")); !sum.locksOwnMu {
		t.Error("rec.Pong: want locksOwnMu=true (direct lock)")
	}
	if sum := sums.ofFunc(fixtureFunc(t, pkg, "rec.Ping")); !sum.locksOwnMu {
		t.Error("rec.Ping: want locksOwnMu=true via fixpoint through the cycle")
	}
}

func TestSummaryBooleanFixpointThroughHelpers(t *testing.T) {
	_, pkg, sums := loadSummaryFixture(t)
	if sum := sums.ofFunc(fixtureFunc(t, pkg, "rec.LockHelper")); !sum.locksOwnMu {
		t.Error("rec.LockHelper: want locksOwnMu=true (local effect)")
	}
	if sum := sums.ofFunc(fixtureFunc(t, pkg, "rec.LockViaHelper")); !sum.locksOwnMu {
		t.Error("rec.LockViaHelper: want locksOwnMu=true inherited from LockHelper")
	}
	if sum := sums.ofFunc(fixtureFunc(t, pkg, "rec.Tick")); sum == nil || sum.locksOwnMu {
		t.Error("rec.Tick: want locksOwnMu=false")
	}
}

func TestCallGraphMethodValuesAndFuncLits(t *testing.T) {
	_, pkg, sums := loadSummaryFixture(t)
	start := fixtureFunc(t, pkg, "rec.Start")
	tick := fixtureFunc(t, pkg, "rec.Tick")
	gf := sums.cg.funcs[funcNode{Fn: start}]
	if gf == nil {
		t.Fatal("rec.Start has no graph node")
	}
	var sawTick, sawLit bool
	var lit *ast.FuncLit
	for _, c := range gf.callees {
		if c.Fn == tick {
			sawTick = true
		}
		if c.Lit != nil {
			sawLit = true
			lit = c.Lit
		}
	}
	if !sawTick {
		t.Error("rec.Start: want a reference edge to rec.Tick (method value)")
	}
	if !sawLit {
		t.Fatal("rec.Start: want an edge to its nested literal")
	}
	if sums.cg.funcs[funcNode{Lit: lit}] == nil {
		t.Error("nested literal: want its own call-graph node")
	}
}
