package lint

// GoroutineLife enforces that every goroutine the HA front end spawns can
// actually exit. The paper's availability argument (§5) assumes failover
// and shutdown drain cleanly; a monitor loop with no exit statement at all
// — `for { beat() }` with no return, break, or panic anywhere in it — can
// never be joined by Shutdown, leaks its stack and its captured resources,
// and turns "restart the controller" into "restart the process".
//
// The check is deliberately narrow so it never argues with legitimate
// designs: it flags only loops that are *provably* unexitable — an
// infinite `for`/`for {}` whose body contains no statement that can leave
// the loop (no return, no panic, no break reaching the loop, no goto).
// Loops that exit on a closed done channel, a context, an error, or a
// bounded count all contain such a statement and pass without the rule
// having to understand why. The infinite-loop inventory is computed per
// function by the summary layer (funcSummary.foreverLoops); this rule
// walks the call graph from each `go` statement and reports any such loop
// the spawned function can reach — so `go c.run()` is blamed at the spawn
// site even when the unexitable loop hides two helpers deep.

import (
	"go/ast"
	"go/token"
)

// GoroutineLife reports go statements whose spawned body can reach a loop
// with no exit path.
type GoroutineLife struct {
	Scope []string
}

func (*GoroutineLife) Name() string { return "goroutinelife" }
func (*GoroutineLife) Doc() string {
	return "every go statement must have a provable exit path: a spawned function must not reach a loop with no return, break, or panic"
}

func (gl *GoroutineLife) Prepare(prog *Program) { prog.summaries() }

func (gl *GoroutineLife) Check(prog *Program, pkg *Package, rep *Reporter) {
	if !inScope(gl.Scope, pkg.RelDir) {
		return
	}
	sums := prog.summaries()
	for _, fb := range packageBodies(pkg) {
		inspectNoFuncLit(fb.body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			target := gl.spawnTarget(prog, pkg, gs)
			if !target.valid() {
				return true
			}
			for _, loop := range reachableForeverLoops(sums, target) {
				rep.Reportf("goroutinelife", gs.Pos(),
					"goroutine runs a loop with no exit statement (loop at %s): it can never be joined by Shutdown and leaks on every restart",
					posAt(pkg.fset, loop))
			}
			return true
		})
		// go statements inside nested literals are seen when packageBodies
		// yields the literal itself, so nothing is missed by not descending.
	}
}

// spawnTarget resolves what a go statement runs: a function literal (its
// own graph node) or a statically-resolved module function. Indirect
// spawns through function values stay silent.
func (gl *GoroutineLife) spawnTarget(prog *Program, pkg *Package, gs *ast.GoStmt) funcNode {
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return funcNode{Lit: lit}
	}
	if fn := calleeFunc(pkg.Info, gs.Call); moduleFunc(fn, prog.ModPath) {
		return funcNode{Fn: fn}
	}
	return funcNode{}
}

// reachableForeverLoops unions foreverLoops over everything the spawned
// body can statically reach. Each body's loops are its own syntax
// (localForeverLoops), not a fixpoint, so a node on a call cycle
// contributes its loops like any other.
func reachableForeverLoops(sums *summaries, root funcNode) []token.Pos {
	var out []token.Pos
	visited := map[funcNode]bool{}
	var visit func(n funcNode, depth int)
	visit = func(n funcNode, depth int) {
		if visited[n] || depth > 200 {
			return
		}
		visited[n] = true
		gf := sums.cg.funcs[n]
		if gf == nil {
			return
		}
		if sum := sums.by[n]; sum != nil {
			out = append(out, sum.foreverLoops...)
		}
		for _, c := range gf.callees {
			visit(c, depth+1)
		}
	}
	visit(root, 0)
	return out
}
