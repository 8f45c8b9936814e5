package lint

// A whole-program static call graph over the loaded packages, the base of
// the interprocedural summary layer (summary.go). Nodes are function
// bodies: declared functions and methods, plus every function literal as
// its own node (matching BuildCFG's decision not to descend into
// literals), which lockflow looks up for its receiver and its "Caller
// holds mu." annotation. Edges are the one kind the lock summary
// propagates along: a method's calls on its own receiver (r.helper()
// inside a method with receiver r), collected over the whole body,
// nested literals included, and resolved statically by calleeFunc.
//
// Calls through interfaces, function-typed variables and method values
// make no edge. That is the usual lightweight-linter trade: rules built on
// the graph are lossy toward silence on indirect calls.

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

	// recvName is the receiver identifier for methods ("" for functions).
	// Literals inherit their enclosing declaration's receiver, since they
	// capture it.
	recvName string

	// annotated: the declaration's doc comment says "Caller holds mu."
	// (lockflow.go). Literals inherit their enclosing declaration's.
	annotated bool

	// ownCalls are callees invoked as methods on this body's own receiver
	// (r.helper() inside a method with receiver r), the edges along which
	// lock acquisition on the receiver propagates. For declarations this is
	// collected over the full body including nested literals (a deferred
	// literal still runs on the same receiver).
	ownCalls []funcNode
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
			// A literal's fb.decl is its enclosing declaration.
			gf := &graphFunc{node: node, pkg: pkg, fb: fb, recvName: recvIdentName(fb.decl),
				annotated: hasCallerHolds(fb.decl.Doc.Text())}
			cg.collectOwnCalls(gf, prog.ModPath)
			cg.funcs[node] = gf
			cg.order = append(cg.order, node)
		}
	}
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

func moduleFunc(fn *types.Func, modPath string) bool {
	return fn != nil && fn.Pkg() != nil &&
		(fn.Pkg().Path() == modPath || strings.HasPrefix(fn.Pkg().Path(), modPath+"/"))
}

// collectOwnCalls fills gf.ownCalls, for a method declaration only, over
// its full body including nested literals, deduplicated, in first-occurrence
// source order.
func (cg *callGraph) collectOwnCalls(gf *graphFunc, modPath string) {
	if gf.fb.lit != nil || gf.recvName == "" {
		return
	}
	seen := map[funcNode]bool{}
	ast.Inspect(gf.fb.body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || exprKey(gf.pkg.fset, sel.X) != gf.recvName {
			return true
		}
		fn := calleeFunc(gf.pkg.Info, call)
		if !moduleFunc(fn, modPath) {
			return true
		}
		if n := (funcNode{Fn: fn}); !seen[n] {
			seen[n] = true
			gf.ownCalls = append(gf.ownCalls, n)
		}
		return true
	})
}

// unionFixpoint solves a monotone union problem along the own-receiver
// call edges — the shape of a may-effect summary such as the lock effect.
// absorb(n, callee) folds the callee's facts into n's and reports whether
// n's grew, and the callers of a node that grew are revisited until nothing
// changes. Facts only grow, so recursion converges exactly. The visit order
// is deterministic (cg.order first, then first-in first-out); dangling
// callees (no body) are skipped.
func (cg *callGraph) unionFixpoint(absorb func(n, callee funcNode) bool) {
	callersOf := map[funcNode][]funcNode{}
	for _, n := range cg.order {
		for _, callee := range cg.funcs[n].ownCalls {
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
		for _, callee := range cg.funcs[n].ownCalls {
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
