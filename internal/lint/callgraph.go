package lint

// A whole-program static call graph over the loaded packages, the base of
// the interprocedural summary layer (summary.go). Nodes are function
// bodies: declared functions and methods, plus every function literal as
// its own node (matching BuildCFG's decision not to descend into
// literals). Edges are *static* only:
//
//   - a call or method call that calleeFunc can resolve to a module
//     function (interface method calls resolve to the interface's method
//     object, which has no body and therefore no node — such edges simply
//     dangle and lookups skip them);
//   - a *reference* to a module function — a method value (`h := c.beat`)
//     or a function value passed as an argument — since the referenced
//     body may run wherever the value flows;
//   - an edge to each directly-nested function literal, since the literal
//     may run whenever its creator does.
//
// Calls through plain function-typed variables are not resolved (no edge).
// That is the usual lightweight-linter trade: rules built on the graph are
// lossy toward silence on indirect calls, and the reference edges above
// keep the common "named function handed to go/defer" cases covered.

import (
	"go/ast"
	"go/types"
	"strings"
)

// funcNode identifies one analyzable body: a declared function or method
// (Fn != nil) or a function literal (Lit != nil). It is comparable, so it
// keys the call graph and the summary cache.
type funcNode struct {
	Fn  *types.Func
	Lit *ast.FuncLit
}

func (n funcNode) valid() bool { return n.Fn != nil || n.Lit != nil }

// graphFunc is one call-graph node: a body, where it lives, and its
// outgoing edges.
type graphFunc struct {
	node funcNode
	pkg  *Package
	fb   funcBody

	// callees are the static call/reference/literal edges, deduplicated,
	// in first-occurrence source order.
	callees []funcNode

	// recvName is the receiver identifier for methods ("" for functions).
	// Literals inherit their enclosing declaration's receiver, since they
	// capture it.
	recvName string

	// ownCalls are callees invoked as methods on this body's own receiver
	// (r.helper() inside a method with receiver r), the edges along which
	// receiver-keyed effects — lock acquisition, slot release — propagate.
	// For declarations this is collected over the full body including
	// nested literals (a deferred literal still runs on the same receiver).
	ownCalls []funcNode

	// syncCallees are the callees that run *synchronously* in this body's
	// goroutine: resolved direct calls outside `go` statements, plus
	// literals that provably run before return (deferred or immediately
	// invoked). Work spawned with `go` is excluded — a goroutine that
	// acquires mu while its spawner holds mu is not a lock-order edge, and
	// an async commit does not dominate anything. The ordering-sensitive
	// summaries (lockorder, commitorder) propagate along these edges only.
	syncCallees []funcNode

	// recursive marks membership in a call-graph cycle, including direct
	// self-calls. Summaries collapse recursive nodes to a conservative top
	// where a bottom-up pass cannot terminate.
	recursive bool
}

// callGraph is the whole-program graph plus a deterministic node order
// (packages in dependency order, declarations before their literals).
type callGraph struct {
	funcs map[funcNode]*graphFunc
	order []funcNode
}

func buildCallGraph(prog *Program) *callGraph {
	cg := &callGraph{funcs: map[funcNode]*graphFunc{}}
	for _, pkg := range prog.Pkgs {
		for _, fb := range packageBodies(pkg) {
			node := bodyNode(pkg, fb)
			if !node.valid() || cg.funcs[node] != nil {
				continue
			}
			gf := &graphFunc{node: node, pkg: pkg, fb: fb, recvName: recvNameOf(fb)}
			cg.collectEdges(gf, prog.ModPath)
			cg.funcs[node] = gf
			cg.order = append(cg.order, node)
		}
	}
	cg.markRecursion()
	return cg
}

// bodyNode maps a funcBody to its graph identity.
func bodyNode(pkg *Package, fb funcBody) funcNode {
	if fb.lit != nil {
		return funcNode{Lit: fb.lit}
	}
	if fn, ok := pkg.Info.Defs[fb.decl.Name].(*types.Func); ok {
		return funcNode{Fn: fn}
	}
	return funcNode{}
}

// recvNameOf returns the receiver identifier a body runs under: its own
// for a method declaration, the enclosing declaration's for a literal.
func recvNameOf(fb funcBody) string {
	if fb.decl == nil {
		return ""
	}
	return recvIdentName(fb.decl)
}

func moduleFunc(fn *types.Func, modPath string) bool {
	return fn != nil && fn.Pkg() != nil &&
		(fn.Pkg().Path() == modPath || strings.HasPrefix(fn.Pkg().Path(), modPath+"/"))
}

// collectEdges walks one body for callees: resolved calls and function
// references (outside nested literals), directly-nested literals, and the
// own-receiver call edges effect propagation rides on.
func (cg *callGraph) collectEdges(gf *graphFunc, modPath string) {
	seen := map[funcNode]bool{}
	add := func(n funcNode) {
		if !seen[n] {
			seen[n] = true
			gf.callees = append(gf.callees, n)
		}
	}
	inspectNoFuncLit(gf.fb.body, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if fn, ok := gf.pkg.Info.Uses[id].(*types.Func); ok && moduleFunc(fn, modPath) {
				add(funcNode{Fn: fn})
			}
		}
		return true
	})
	for _, lit := range directLits(gf.fb.body) {
		add(funcNode{Lit: lit})
	}
	// Synchronous call edges: resolved calls outside `go` subtrees, plus
	// run-before-return literals. Method values and escaping literals are
	// excluded — where they run is unknown (lossy toward silence).
	syncSeen := map[funcNode]bool{}
	addSync := func(n funcNode) {
		if !syncSeen[n] {
			syncSeen[n] = true
			gf.syncCallees = append(gf.syncCallees, n)
		}
	}
	ast.Inspect(gf.fb.body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				addSync(funcNode{Lit: lit})
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(m.Fun).(*ast.FuncLit); ok {
				addSync(funcNode{Lit: lit}) // immediately invoked
			} else if fn := calleeFunc(gf.pkg.Info, m); moduleFunc(fn, modPath) {
				addSync(funcNode{Fn: fn})
			}
		}
		return true
	})
	// Own-receiver calls: full body including literals, declarations only.
	if gf.fb.lit == nil && gf.recvName != "" {
		ownSeen := map[funcNode]bool{}
		ast.Inspect(gf.fb.body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || exprKey(gf.pkg.pkgFset(), sel.X) != gf.recvName {
				return true
			}
			fn := calleeFunc(gf.pkg.Info, call)
			if !moduleFunc(fn, modPath) {
				return true
			}
			n := funcNode{Fn: fn}
			if !ownSeen[n] {
				ownSeen[n] = true
				gf.ownCalls = append(gf.ownCalls, n)
			}
			return true
		})
	}
}

// unionFixpoint solves a monotone union problem over the graph — the shape
// of every may-effect summary (lock effects, commit reachability, lock
// acquisition sets). edges picks the edge set effects travel along;
// absorb(n, callee) folds the callee's facts into n's and reports whether
// n's grew, and the callers of a node that grew are revisited until nothing
// changes. Facts only grow, so recursion converges exactly. The visit order
// is deterministic (cg.order first, then first-in first-out), which
// witness-keeping clients rely on; dangling callees (no body) are skipped.
func (cg *callGraph) unionFixpoint(edges func(*graphFunc) []funcNode, absorb func(n, callee funcNode) bool) {
	callersOf := map[funcNode][]funcNode{}
	for _, n := range cg.order {
		for _, callee := range edges(cg.funcs[n]) {
			if cg.funcs[callee] != nil {
				callersOf[callee] = append(callersOf[callee], n)
			}
		}
	}
	worklist := append([]funcNode(nil), cg.order...)
	queued := map[funcNode]bool{}
	for _, n := range worklist {
		queued[n] = true
	}
	for len(worklist) > 0 {
		n := worklist[0]
		worklist = worklist[1:]
		queued[n] = false
		changed := false
		for _, callee := range edges(cg.funcs[n]) {
			if cg.funcs[callee] != nil && absorb(n, callee) {
				changed = true
			}
		}
		if changed {
			for _, caller := range callersOf[n] {
				if !queued[caller] {
					queued[caller] = true
					worklist = append(worklist, caller)
				}
			}
		}
	}
}

func ownCallEdges(gf *graphFunc) []funcNode  { return gf.ownCalls }
func syncCallEdges(gf *graphFunc) []funcNode { return gf.syncCallees }

// directLits lists the literals nested immediately in body (not inside a
// deeper literal), each of which is its own graph node.
func directLits(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, lit)
			return false
		}
		return true
	})
	return out
}

// markRecursion flags every node on a call-graph cycle (Tarjan SCCs plus
// direct self-edges).
func (cg *callGraph) markRecursion() {
	index := map[funcNode]int{}
	lowlink := map[funcNode]int{}
	onStack := map[funcNode]bool{}
	var stack []funcNode
	next := 0

	var strongconnect func(v funcNode)
	strongconnect = func(v funcNode) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range cg.funcs[v].callees {
			if cg.funcs[w] == nil {
				continue // dangling edge (no body): interface method, other module
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var scc []funcNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				for _, w := range scc {
					cg.funcs[w].recursive = true
				}
			}
		}
	}
	for _, n := range cg.order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	// Direct self-calls form singleton SCCs; catch them separately.
	for _, n := range cg.order {
		for _, w := range cg.funcs[n].callees {
			if w == n {
				cg.funcs[n].recursive = true
			}
		}
	}
}
