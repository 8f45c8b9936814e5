package lint

// The whole-module lock-order graph, the shared infrastructure behind the
// lockorder rule and `purity-lint -graph`. The graph's nodes are *lock
// classes* — a mutex identified by the struct field that holds it
// ("core.Array.mu", "core.openSeg.mu") or by its package-level
// variable — and an edge A→B records a witness that some synchronous
// execution path acquires B while holding A. Edges come from two places:
//
//   - directly: a body whose solved lock lattice (lockflow.go) proves
//     chain A is held at a `B.Lock()`/`B.RLock()` site;
//   - through calls: a body holding A calls a module function whose
//     *acquisition summary* — the transitive set of lock classes its
//     synchronous callees may acquire, a union fixpoint over syncCallees —
//     contains B. The witness keeps the call chain down to the real
//     acquisition site.
//
// `go`-spawned work is excluded throughout (a goroutine locking mu while
// its spawner holds mu is concurrency, not nesting), as are deferred
// statements during edge collection (the held-set when a defer *fires* is
// the one at return, not at registration — lossy toward silence).
//
// Read/write modes are tracked on both ends of every edge. A cycle whose
// edges are all read-shared (RLock held while RLock acquired) cannot
// deadlock — RWMutex read locks admit each other — so cycle detection only
// walks *blocking* edges: those where either end is a write or
// caller-held acquisition. Lock classes name types, not instances, so two
// chains of the same class ordered against each other surface as a
// self-loop (reported: instance order is unprovable statically).
//
// The inferred graph is checked against declared order comments:
//
//	//lint:lockorder Array.world < Array.mu < openSeg.mu
//
// Class names resolve relative to the declaring package (a bare
// "Array.mu" in core means "core.Array.mu"). Declarations are checked,
// not trusted: an inferred blocking edge that contradicts the declared
// (transitively closed) order is a finding, and so is a declared class
// the analysis never sees acquired — a typo guard, since a misspelled
// declaration would otherwise silently constrain nothing.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// lockAcqKey identifies one acquisition kind in a summary: which class,
// and whether it is provably a read (RLock) acquisition.
type lockAcqKey struct {
	class string
	read  bool
}

// lockAcqWit is the witness for one summary entry: the synchronous call
// chain from the summarized function down to the body that contains the
// acquisition, and the acquisition site itself.
type lockAcqWit struct {
	via []funcNode
	pos token.Pos
}

// lockEdge is one observed held→acquired pair.
type lockEdge struct {
	from, to         string
	fromRead, toRead bool
	// pos is the site in the analyzed body where the edge was observed:
	// the acquisition itself, or the call the acquisition floats out of.
	pos token.Pos
	fn  funcNode
	// via/viaPos trace a call-site edge to the real acquisition.
	via    []funcNode
	viaPos token.Pos
}

// lockDecl is one parsed //lint:lockorder declaration: an ordered list of
// resolved class names.
type lockDecl struct {
	classes []string
	pos     token.Pos
}

// lockGraph is the assembled module graph plus everything derived from
// it: deduplicated edges, declarations, detected cycles, and the pending
// diagnostics the lockorder rule emits per package.
type lockGraph struct {
	sums *summaries

	acquires map[funcNode]map[lockAcqKey]lockAcqWit

	classes []string   // sorted node set
	edges   []lockEdge // deduped by (from, to, modes), collection order

	decls  []lockDecl
	before map[string]map[string]bool // transitive closure of declared order

	cycles  [][]string    // each cycle as class sequence, first repeated last
	pending []pendingDiag // rule findings, anchored for per-package emission
}

type pendingDiag struct {
	pos token.Pos
	msg string
}

// lockGraph builds (once) and returns the module lock-order graph.
func (s *summaries) lockGraph() *lockGraph {
	if s.lg == nil {
		s.lg = buildLockGraph(s)
	}
	return s.lg
}

func buildLockGraph(s *summaries) *lockGraph {
	g := &lockGraph{sums: s, acquires: map[funcNode]map[lockAcqKey]lockAcqWit{}}
	g.localAcquires()
	g.fixpointAcquires()
	g.collectEdges()
	g.parseDecls()
	g.detect()
	return g
}

// --- Lock class resolution ----------------------------------------------

// lockClassOf names the module-wide class of a mutex expression (the
// receiver of a .Lock() call): "pkg.Type.field" for a struct field,
// "pkg.var" for a package-level variable, "" when the mutex is a local or
// the expression is too complex to name (skipped — lossy toward silence).
func lockClassOf(pkg *Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		tv, ok := pkg.Info.Types[e.X]
		if !ok {
			return ""
		}
		named := derefNamed(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "" // local mutex: no module-wide identity
		}
		return shortPkg(v.Pkg().Path()) + "." + v.Name()
	}
	return ""
}

// recvMuClass names the lock class an annotated-entry method starts out
// holding: the receiver type's mu field.
func recvMuClass(gf *graphFunc) string {
	if gf.fb.decl == nil || gf.recvName == "" {
		return ""
	}
	obj, ok := gf.pkg.Info.Defs[gf.fb.decl.Name].(*types.Func)
	if !ok {
		return ""
	}
	named := recvNamed(obj)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + ".mu"
}

// chainClasses maps every mutex chain a body touches to its class, plus
// the annotated entry chain. Flow-insensitive on purpose: the held-set
// query during edge collection may see a chain whose defining site is in
// a later block (a loop back-edge), and the chain→class relation is a
// property of the names, not the path.
func chainClasses(gf *graphFunc) map[string]string {
	out := map[string]string{}
	inspectNoFuncLit(gf.fb.body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, recv := syncCall(gf.pkg, call)
		if op == "" {
			return true
		}
		chain := exprKey(gf.pkg.pkgFset(), recv)
		if _, seen := out[chain]; !seen {
			if class := lockClassOf(gf.pkg, recv); class != "" {
				out[chain] = class
			}
		}
		return true
	})
	if gf.fb.decl != nil && hasCallerHolds(gf.fb.decl.Doc.Text()) && gf.recvName != "" {
		chain := gf.recvName + ".mu"
		if _, seen := out[chain]; !seen {
			if class := recvMuClass(gf); class != "" {
				out[chain] = class
			}
		}
	}
	return out
}

// --- Acquisition summaries ----------------------------------------------

// localAcquires seeds each node's summary with the Lock/RLock sites in
// its own body (literals are their own nodes; `go` subtrees excluded).
func (g *lockGraph) localAcquires() {
	for _, n := range g.sums.cg.order {
		gf := g.sums.cg.funcs[n]
		acq := map[lockAcqKey]lockAcqWit{}
		ast.Inspect(gf.fb.body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CallExpr:
				op, recv := syncCall(gf.pkg, m)
				if op != "Lock" && op != "RLock" {
					return true
				}
				class := lockClassOf(gf.pkg, recv)
				if class == "" {
					return true
				}
				key := lockAcqKey{class: class, read: op == "RLock"}
				if _, seen := acq[key]; !seen {
					acq[key] = lockAcqWit{pos: m.Pos()}
				}
			}
			return true
		})
		g.acquires[n] = acq
	}
}

// fixpointAcquires unions callee acquisition sets into callers along
// syncCallees edges. The set only grows, so recursion converges exactly;
// witnesses keep the first chain discovered (deterministic: the worklist
// and merge both follow cg.order / sorted keys).
func (g *lockGraph) fixpointAcquires() {
	g.sums.cg.unionFixpoint(syncCallEdges, func(n, callee funcNode) bool {
		acq, sub := g.acquires[n], g.acquires[callee]
		changed := false
		for _, key := range sortedAcqKeys(sub) {
			if _, seen := acq[key]; seen {
				continue
			}
			wit := sub[key]
			acq[key] = lockAcqWit{via: append([]funcNode{callee}, wit.via...), pos: wit.pos}
			changed = true
		}
		return changed
	})
}

func sortedAcqKeys(m map[lockAcqKey]lockAcqWit) []lockAcqKey {
	keys := make([]lockAcqKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return !keys[i].read && keys[j].read
	})
	return keys
}

// --- Edge collection ----------------------------------------------------

// collectEdges solves each body's lock lattice and records a held→acquired
// edge at every acquisition and every synchronous call whose summary
// acquires, using the fixpoint held-set at that point.
func (g *lockGraph) collectEdges() {
	type edgeKey struct {
		from, to         string
		fromRead, toRead bool
	}
	seen := map[edgeKey]bool{}
	add := func(e lockEdge) {
		key := edgeKey{e.from, e.to, e.fromRead, e.toRead}
		if !seen[key] {
			seen[key] = true
			g.edges = append(g.edges, e)
		}
	}
	classSet := map[string]bool{}
	for _, n := range g.sums.cg.order {
		gf := g.sums.cg.funcs[n]
		classes := chainClasses(gf)
		for _, c := range classes {
			classSet[c] = true
		}
		p := &lockProblem{pkg: gf.pkg, entry: entryLockState(gf.fb)}
		sol := Solve[lockState](BuildCFG(gf.fb.body), p)
		sol.Replay(p, func(node ast.Node, before lockState) {
			switch node.(type) {
			case *ast.GoStmt, *ast.DeferStmt:
				return // not synchronous here: no ordering edge
			}
			s := before
			inspectNoFuncLit(node, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				heldEdges := func(to string, toRead bool, skipChain string, mk func() lockEdge) {
					for _, chain := range sortedChains(s) {
						v := s[chain]
						if !v.mode.held() || chain == skipChain {
							continue
						}
						from, ok := classes[chain]
						if !ok {
							continue
						}
						e := mk()
						e.from, e.to = from, to
						e.fromRead, e.toRead = v.mode == lockRead, toRead
						add(e)
					}
				}
				if op, recv := syncCall(gf.pkg, call); op != "" {
					chain := exprKey(gf.pkg.pkgFset(), recv)
					if op == "Lock" || op == "RLock" {
						if to := classes[chain]; to != "" {
							heldEdges(to, op == "RLock", chain, func() lockEdge {
								return lockEdge{pos: call.Pos(), fn: n}
							})
						}
					}
					s = p.applyLockOp(s, chain, op, call.Pos())
					return true
				}
				fn := calleeFunc(gf.pkg.Info, call)
				// Synchronous call into the module (or an immediately
				// invoked literal): float the callee's acquisitions out.
				var calleeNode funcNode
				if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
					calleeNode = funcNode{Lit: lit}
				} else if moduleFunc(fn, g.sums.prog.ModPath) {
					calleeNode = funcNode{Fn: fn}
				} else {
					return true
				}
				for _, key := range sortedAcqKeys(g.acquires[calleeNode]) {
					wit := g.acquires[calleeNode][key]
					// A callee acquiring a class we already hold is either
					// lockflow's self-deadlock (same object, its summary
					// check reports it) or instance-order territory the call
					// boundary makes unprovable: skip, toward silence.
					skip := false
					for _, chain := range sortedChains(s) {
						if s[chain].mode.held() && classes[chain] == key.class {
							skip = true
						}
					}
					if skip {
						continue
					}
					heldEdges(key.class, key.read, "", func() lockEdge {
						return lockEdge{
							pos: call.Pos(), fn: n,
							via:    append([]funcNode{calleeNode}, wit.via...),
							viaPos: wit.pos,
						}
					})
				}
				return true
			})
		})
	}
	for _, e := range g.edges {
		classSet[e.from] = true
		classSet[e.to] = true
	}
	for c := range classSet {
		g.classes = append(g.classes, c)
	}
	sort.Strings(g.classes)
}

// --- Declarations -------------------------------------------------------

// parseDecls reads //lint:lockorder comments from every loaded package and
// resolves their class names: a name is taken verbatim if the graph knows
// it, otherwise qualified with the declaring package.
func (g *lockGraph) parseDecls() {
	known := map[string]bool{}
	for _, c := range g.classes {
		known[c] = true
	}
	g.before = map[string]map[string]bool{}
	for _, pkg := range g.sums.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:lockorder")
					if !ok {
						continue
					}
					var classes []string
					malformed := false
					for _, part := range strings.Split(text, "<") {
						name := strings.TrimSpace(part)
						if name == "" {
							malformed = true
							break
						}
						if !known[name] {
							name = shortPkg(pkg.Path) + "." + name
						}
						classes = append(classes, name)
					}
					if malformed || len(classes) < 2 {
						g.pending = append(g.pending, pendingDiag{c.Pos(),
							`malformed //lint:lockorder: want "//lint:lockorder A < B [< C...]"`})
						continue
					}
					g.decls = append(g.decls, lockDecl{classes: classes, pos: c.Pos()})
					for i, name := range classes {
						if !known[name] {
							g.pending = append(g.pending, pendingDiag{c.Pos(),
								fmt.Sprintf("declared lock class %s is never acquired anywhere in the module: stale or misspelled declaration", name)})
						}
						for _, later := range classes[i+1:] {
							if g.before[name] == nil {
								g.before[name] = map[string]bool{}
							}
							g.before[name][later] = true
						}
					}
				}
			}
		}
	}
	// Transitive closure (the class set is tiny; cubic is fine).
	for changed := true; changed; {
		changed = false
		for a, bs := range g.before {
			for b := range bs {
				for c := range g.before[b] {
					if !g.before[a][c] {
						g.before[a][c] = true
						changed = true
					}
				}
			}
		}
	}
	// A pair ordered both ways after closure means the declarations
	// disagree (a class before itself is just that same disagreement seen
	// from inside the cycle). Report each pair once, anchored at the first
	// declaration that mentions one of its classes.
	seenPair := map[[2]string]bool{}
	for _, d := range g.decls {
		for _, a := range d.classes {
			for b := range g.before[a] {
				if a >= b || !g.before[b][a] || seenPair[[2]string{a, b}] {
					continue
				}
				seenPair[[2]string{a, b}] = true
				g.pending = append(g.pending, pendingDiag{d.pos,
					fmt.Sprintf("contradictory //lint:lockorder declarations: %s and %s are each declared before the other", a, b)})
			}
		}
	}
}

// --- Cycle and violation detection --------------------------------------

// blocking reports whether an edge can participate in a deadlock: only a
// cycle of pure read-shared edges is harmless.
func (e *lockEdge) blocking() bool { return !(e.fromRead && e.toRead) }

func (g *lockGraph) detect() {
	// Blocking adjacency, with the first witness per (from, to) pair.
	succs := map[string][]string{}
	wit := map[[2]string]*lockEdge{}
	for i := range g.edges {
		e := &g.edges[i]
		if !e.blocking() {
			continue
		}
		key := [2]string{e.from, e.to}
		if wit[key] == nil {
			wit[key] = e
			succs[e.from] = append(succs[e.from], e.to)
		}
	}
	for _, ss := range succs {
		sort.Strings(ss)
	}

	// Self-loops first: same class on both ends means two instances (the
	// same-chain case never produces an edge), which no static order can
	// rank — report directly.
	for _, c := range g.classes {
		if e := wit[[2]string{c, c}]; e != nil {
			g.cycles = append(g.cycles, []string{c, c})
			g.pending = append(g.pending, pendingDiag{e.pos, fmt.Sprintf(
				"lock-order hazard: %s acquired while another %s is already held%s — instances of one class cannot be ordered statically",
				c, c, g.witnessSuffix(e))})
		}
	}

	// Tarjan SCCs over the blocking graph; every SCC with >1 node holds at
	// least one cycle. One report per SCC, anchored at the witness of the
	// first edge on a shortest cycle through the SCC's smallest class.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
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
				sort.Strings(scc)
				sccs = append(sccs, scc)
			}
		}
	}
	for _, c := range g.classes {
		if _, seen := index[c]; !seen {
			strongconnect(c)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	for _, scc := range sccs {
		cycle := shortestCycle(scc[0], succs, scc)
		if cycle == nil {
			continue // unreachable: an SCC node always lies on a cycle
		}
		g.cycles = append(g.cycles, cycle)
		e := wit[[2]string{cycle[0], cycle[1]}]
		var steps []string
		for i := 0; i+1 < len(cycle); i++ {
			se := wit[[2]string{cycle[i], cycle[i+1]}]
			steps = append(steps, fmt.Sprintf("%s while holding %s%s",
				cycle[i+1], cycle[i], g.witnessSuffix(se)))
		}
		g.pending = append(g.pending, pendingDiag{e.pos, fmt.Sprintf(
			"lock-order cycle (potential deadlock): %s; acquired %s",
			strings.Join(cycle, " → "), strings.Join(steps, "; then "))})
	}

	// Declared-order violations: an inferred blocking edge X→Y with Y
	// declared (transitively) before X.
	for i := range g.edges {
		e := &g.edges[i]
		if !e.blocking() || e.from == e.to {
			continue
		}
		if g.before[e.to][e.from] {
			g.pending = append(g.pending, pendingDiag{e.pos, fmt.Sprintf(
				"acquisition of %s while holding %s contradicts the declared lock order (%s < %s)%s",
				e.to, e.from, e.to, e.from, g.witnessSuffix(e))})
		}
	}
	// RLock→Lock upgrades across instances of one class are caught by the
	// self-loop report above; the same-chain upgrade is lockflow's.
}

// shortestCycle BFSes from start over succs restricted to scc members and
// returns start → ... → start, or nil when no edge returns to start.
func shortestCycle(start string, succs map[string][]string, scc []string) []string {
	member := map[string]bool{}
	for _, c := range scc {
		member[c] = true
	}
	prev := map[string]string{}
	queue := []string{start}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range succs[v] {
			if w == start {
				var rev []string
				for u := v; ; u = prev[u] {
					rev = append(rev, u)
					if u == start {
						break
					}
				}
				cycle := make([]string, 0, len(rev)+1)
				for i := len(rev) - 1; i >= 0; i-- {
					cycle = append(cycle, rev[i])
				}
				return append(cycle, start)
			}
			if !member[w] || visited[w] {
				continue
			}
			visited[w] = true
			prev[w] = v
			queue = append(queue, w)
		}
	}
	return nil
}

// witnessSuffix renders where an edge was observed, including the call
// chain for edges that float out of callees.
func (g *lockGraph) witnessSuffix(e *lockEdge) string {
	var b strings.Builder
	fmt.Fprintf(&b, " in %s at %s", g.sums.nodeDisplay(e.fn), g.at(e.pos))
	if len(e.via) > 0 {
		names := make([]string, len(e.via))
		for i, n := range e.via {
			names[i] = g.sums.nodeDisplay(n)
		}
		fmt.Fprintf(&b, " via %s (locked at %s)", strings.Join(names, " → "), g.at(e.viaPos))
	}
	return b.String()
}

func (g *lockGraph) at(pos token.Pos) string { return g.sums.posAt(pos) }

// posAt renders a position as "file.go:line" for diagnostics.
func (s *summaries) posAt(pos token.Pos) string {
	if !pos.IsValid() {
		return "entry"
	}
	pp := s.prog.Fset.Position(pos)
	return shortPkg(pp.Filename) + ":" + fmt.Sprint(pp.Line)
}

// nodeDisplay names a call-graph node for humans: "pkg.Type.Method",
// "pkg.Func", or "func@file:line" for a literal.
func (s *summaries) nodeDisplay(n funcNode) string {
	if n.Fn != nil {
		if named := recvNamed(n.Fn); named != nil && named.Obj().Pkg() != nil {
			return shortPkg(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + n.Fn.Name()
		}
		if n.Fn.Pkg() != nil {
			return shortPkg(n.Fn.Pkg().Path()) + "." + n.Fn.Name()
		}
		return n.Fn.Name()
	}
	if n.Lit != nil {
		pp := s.prog.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("func@%s:%d", shortPkg(pp.Filename), pp.Line)
	}
	return "?"
}

// --- Export (purity-lint -graph) ----------------------------------------

// LockEdgeDump is the exported form of one lock-order edge.
type LockEdgeDump struct {
	From     string   `json:"from"`
	To       string   `json:"to"`
	FromRead bool     `json:"from_read"`
	ToRead   bool     `json:"to_read"`
	Site     string   `json:"site"`
	In       string   `json:"in"`
	Via      []string `json:"via,omitempty"`
}

// LockGraphDump is the exported lock-order graph: nodes, witnessed edges,
// declared order chains, and any detected cycles.
type LockGraphDump struct {
	Classes  []string       `json:"classes"`
	Edges    []LockEdgeDump `json:"edges"`
	Declared [][]string     `json:"declared,omitempty"`
	Cycles   [][]string     `json:"cycles,omitempty"`
}

// DumpLockGraph builds the module's lock-order graph for export.
func DumpLockGraph(prog *Program) *LockGraphDump {
	s := prog.summaries()
	g := s.lockGraph()
	d := &LockGraphDump{Classes: g.classes}
	for i := range g.edges {
		e := &g.edges[i]
		de := LockEdgeDump{
			From: e.from, To: e.to, FromRead: e.fromRead, ToRead: e.toRead,
			Site: g.relAt(e.pos), In: s.nodeDisplay(e.fn),
		}
		for _, v := range e.via {
			de.Via = append(de.Via, s.nodeDisplay(v))
		}
		d.Edges = append(d.Edges, de)
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		a, b := d.Edges[i], d.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		if a.FromRead != b.FromRead {
			return !a.FromRead
		}
		return !a.ToRead
	})
	for _, decl := range g.decls {
		d.Declared = append(d.Declared, decl.classes)
	}
	d.Cycles = g.cycles
	return d
}

func (g *lockGraph) relAt(pos token.Pos) string {
	pp := g.sums.prog.Fset.Position(pos)
	name := pp.Filename
	if rel, err := filepath.Rel(g.sums.prog.ModRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", name, pp.Line)
}

// DOT renders the lock-order graph for graphviz: solid edges block,
// dashed edges are read-shared, red edges lie on a detected cycle.
func (d *LockGraphDump) DOT() string {
	onCycle := map[[2]string]bool{}
	for _, cyc := range d.Cycles {
		for i := 0; i+1 < len(cyc); i++ {
			onCycle[[2]string{cyc[i], cyc[i+1]}] = true
		}
	}
	var b strings.Builder
	b.WriteString("digraph lockorder {\n")
	b.WriteString("\trankdir=TB;\n")
	b.WriteString("\tnode [shape=box, fontname=\"monospace\"];\n")
	for _, c := range d.Classes {
		fmt.Fprintf(&b, "\t%q;\n", c)
	}
	for _, e := range d.Edges {
		mode := func(read bool) string {
			if read {
				return "R"
			}
			return "W"
		}
		attrs := []string{fmt.Sprintf("label=%q", mode(e.FromRead)+"→"+mode(e.ToRead)+"\\n"+e.Site)}
		if e.FromRead && e.ToRead {
			attrs = append(attrs, "style=dashed")
		}
		if onCycle[[2]string{e.From, e.To}] {
			attrs = append(attrs, "color=red")
		}
		fmt.Fprintf(&b, "\t%q -> %q [%s];\n", e.From, e.To, strings.Join(attrs, ", "))
	}
	b.WriteString("}\n")
	return b.String()
}

// CallEdgeDump is one static call edge.
type CallEdgeDump struct {
	From string `json:"from"`
	To   string `json:"to"`
	Sync bool   `json:"sync"`
}

// CallGraphDump is the exported module call graph.
type CallGraphDump struct {
	Nodes []string       `json:"nodes"`
	Edges []CallEdgeDump `json:"edges"`
}

// DumpCallGraph exports the static call graph the summaries run on.
func DumpCallGraph(prog *Program) *CallGraphDump {
	s := prog.summaries()
	d := &CallGraphDump{}
	for _, n := range s.cg.order {
		d.Nodes = append(d.Nodes, s.nodeDisplay(n))
	}
	sort.Strings(d.Nodes)
	seen := map[CallEdgeDump]bool{}
	for _, n := range s.cg.order {
		gf := s.cg.funcs[n]
		sync := map[funcNode]bool{}
		for _, c := range gf.syncCallees {
			sync[c] = true
		}
		for _, c := range gf.callees {
			if s.cg.funcs[c] == nil {
				continue
			}
			e := CallEdgeDump{From: s.nodeDisplay(n), To: s.nodeDisplay(c), Sync: sync[c]}
			if !seen[e] {
				seen[e] = true
				d.Edges = append(d.Edges, e)
			}
		}
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		a, b := d.Edges[i], d.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return d
}

// DOT renders the call graph; async-only edges (references, go-spawned
// literals) are dashed.
func (d *CallGraphDump) DOT() string {
	var b strings.Builder
	b.WriteString("digraph calls {\n")
	b.WriteString("\trankdir=LR;\n")
	b.WriteString("\tnode [shape=ellipse, fontname=\"monospace\", fontsize=10];\n")
	for _, e := range d.Edges {
		if e.Sync {
			fmt.Fprintf(&b, "\t%q -> %q;\n", e.From, e.To)
		} else {
			fmt.Fprintf(&b, "\t%q -> %q [style=dashed];\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
