package lint

import (
	"go/types"
	"path/filepath"
	"testing"
)

// loadSummaryFixture loads testdata/summary and returns the program, the
// fixture package, and the built summary table.
func loadSummaryFixture(t *testing.T) (*Program, *Package, *summaries) {
	t.Helper()
	prog, err := Load(".", []string{filepath.Join("testdata", "summary")})
	if err != nil {
		t.Fatal(err)
	}
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

// TestCallGraphMethodValuesAndFuncLits pins what lockflow relies on: a
// method's edges are its calls on its own receiver, those in its nested
// literals included, and a method value is no call, so no edge; a nested
// literal is a node of its own, carrying its method's receiver.
func TestCallGraphMethodValuesAndFuncLits(t *testing.T) {
	_, pkg, sums := loadSummaryFixture(t)
	start := fixtureFunc(t, pkg, "rec.Start")
	helper := fixtureFunc(t, pkg, "rec.LockHelper")
	gf := sums.cg.funcs[funcNode{Fn: start}]
	if gf == nil {
		t.Fatal("rec.Start has no graph node")
	}
	if len(gf.ownCalls) != 1 || gf.ownCalls[0].Fn != helper {
		t.Errorf("rec.Start: own calls %v, want rec.LockHelper alone (the method value rec.Tick is no call)", gf.ownCalls)
	}
	if !sums.ofFunc(start).locksOwnMu {
		t.Error("rec.Start: want locksOwnMu=true through the call in its literal")
	}
	var lits []*graphFunc
	for _, n := range sums.cg.order {
		if lit := sums.cg.funcs[n]; n.Lit != nil && lit.fb.decl == gf.fb.decl {
			lits = append(lits, lit)
		}
	}
	if len(lits) != 1 {
		t.Fatalf("rec.Start: %d literal nodes, want its one nested literal", len(lits))
	}
	if lits[0].recvName != "r" || len(lits[0].ownCalls) != 0 {
		t.Errorf("rec.Start's literal: receiver %q and own calls %v, want r and none (its calls are Start's)",
			lits[0].recvName, lits[0].ownCalls)
	}
}
