package lint

// Per-function control-flow graphs for the path-sensitive rule, lockflow.
// The graph is built from syntax alone — no type information — so it can
// be unit-tested on bare parsed snippets.
//
// Granularity: a Block holds *simple* statements and control expressions
// (if/for conditions, switch tags, range operands) in execution order.
// Compound statements are never block nodes, so a rule walking a node with
// inspectNoFuncLit sees each sub-expression exactly once across the whole
// graph. Approximations, chosen to keep rules simple and documented here
// once:
//
//   - defer is a plain node where it executes (registration is itself
//     path-dependent), not an edge to Exit; rules that care about deferred
//     calls track them in their lattice.
//   - function literals are not descended into; each literal body is
//     analyzed as its own graph (see packageBodies).
//   - a range statement contributes only its operand expression; the
//     per-iteration key/value binding is not modeled.
//   - case expressions of a switch are recorded in their clause's block,
//     though Go evaluates them while selecting a clause.
//   - panic(...) ends its path with an EdgePanic into Exit; rules skip
//     exit obligations (e.g. "unlock before return") on panic edges.

import (
	"go/ast"
	"go/token"
)

// EdgeKind distinguishes how control reaches the target block, so rules
// can treat function exits differently by cause.
type EdgeKind uint8

const (
	// EdgeNormal is ordinary intra-function flow.
	EdgeNormal EdgeKind = iota
	// EdgeReturn enters Exit from an explicit return statement.
	EdgeReturn
	// EdgeImplicitReturn enters Exit by falling off the end of the body.
	EdgeImplicitReturn
	// EdgePanic enters Exit from a panic(...) call.
	EdgePanic
)

// Edge is one successor link. When Cond is non-nil the edge is taken only
// when Cond evaluates to CondTrue, which lets rules refine state along
// branches (lockflow resolves `if !mu.TryLock()` on the guard's arm).
type Edge struct {
	To       *Block
	Cond     ast.Expr
	CondTrue bool
	Kind     EdgeKind
}

// Block is a straight-line run of nodes with its successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
}

// CFG is one function body's graph. Blocks[0] is Entry and Blocks[1] is
// Exit; blocks with no path from Entry (dead code) simply stay unreached
// by the solver.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
}

// BuildCFG constructs the graph for one function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		c:      &CFG{},
		labels: map[string]*Block{},
		gotos:  map[string][]*Block{},
	}
	b.c.Entry = b.newBlock()
	b.c.Exit = b.newBlock()
	b.cur = b.c.Entry
	b.stmt(body)
	b.edge(b.cur, b.c.Exit, Edge{Kind: EdgeImplicitReturn})
	return b.c
}

type branchTarget struct {
	label string
	block *Block
}

type cfgBuilder struct {
	c   *CFG
	cur *Block // nil after a terminator: following code is unreachable

	breaks    []branchTarget // loops, switches, selects
	continues []branchTarget // loops only
	labels    map[string]*Block
	gotos     map[string][]*Block // unresolved forward gotos by label
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.c.Blocks)}
	b.c.Blocks = append(b.c.Blocks, blk)
	return blk
}

// ensure gives unreachable trailing code a fresh predecessor-less block so
// its nodes still exist in the graph (the solver never visits them).
func (b *cfgBuilder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

// edge links from→to; a nil from means the path already terminated.
func (b *cfgBuilder) edge(from, to *Block, e Edge) {
	if from == nil {
		return
	}
	e.To = to
	from.Succs = append(from.Succs, e)
}

func (b *cfgBuilder) defineLabel(name string, target *Block) {
	b.labels[name] = target
	for _, src := range b.gotos[name] {
		b.edge(src, target, Edge{})
	}
	delete(b.gotos, name)
}

func (b *cfgBuilder) findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t)
		}
	case *ast.LabeledStmt:
		j := b.newBlock()
		b.edge(b.cur, j, Edge{})
		b.cur = j
		b.defineLabel(s.Label.Name, j)
		b.labeledStmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.c.Exit, Edge{Kind: EdgeReturn})
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.edge(b.cur, b.c.Exit, Edge{Kind: EdgePanic})
			b.cur = nil
		}
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.labeledStmt(s, "")
	case nil:
		// absent else branch and the like
	default:
		// AssignStmt, DeclStmt, IncDecStmt, DeferStmt, GoStmt, SendStmt,
		// EmptyStmt, BadStmt: straight-line nodes.
		b.add(s)
	}
}

// labeledStmt builds the constructs break/continue can name.
func (b *cfgBuilder) labeledStmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	default:
		b.stmt(s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	condBlk := b.cur
	then := b.newBlock()
	b.edge(condBlk, then, Edge{Cond: s.Cond, CondTrue: true})
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur
	if s.Else == nil {
		after := b.newBlock()
		b.edge(condBlk, after, Edge{Cond: s.Cond, CondTrue: false})
		b.edge(thenEnd, after, Edge{})
		b.cur = after
		return
	}
	elseEntry := b.newBlock()
	b.edge(condBlk, elseEntry, Edge{Cond: s.Cond, CondTrue: false})
	b.cur = elseEntry
	b.stmt(s.Else)
	elseEnd := b.cur
	after := b.newBlock()
	b.edge(thenEnd, after, Edge{})
	b.edge(elseEnd, after, Edge{})
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		b.add(s)
		b.edge(b.cur, b.findTarget(b.breaks, label), Edge{})
		b.cur = nil
	case token.CONTINUE:
		b.add(s)
		b.edge(b.cur, b.findTarget(b.continues, label), Edge{})
		b.cur = nil
	case token.GOTO:
		b.add(s)
		if target, ok := b.labels[label]; ok {
			b.edge(b.cur, target, Edge{})
		} else if b.cur != nil {
			b.gotos[label] = append(b.gotos[label], b.cur)
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Recorded as a node; switchStmt wires the edge to the next clause.
		b.add(s)
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	header := b.newBlock()
	b.edge(b.cur, header, Edge{})
	b.cur = header
	if s.Cond != nil {
		b.add(s.Cond)
	}
	condEnd := b.cur // cond evaluation cannot terminate, but stay uniform
	body := b.newBlock()
	after := b.newBlock()
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
	}
	if s.Cond != nil {
		b.edge(condEnd, body, Edge{Cond: s.Cond, CondTrue: true})
		b.edge(condEnd, after, Edge{Cond: s.Cond, CondTrue: false})
	} else {
		b.edge(condEnd, body, Edge{})
	}
	continueTo := header
	if post != nil {
		continueTo = post
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, continueTo})
	b.cur = body
	b.stmt(s.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if post != nil {
		b.edge(b.cur, post, Edge{})
		b.cur = post
		b.add(s.Post)
		b.edge(b.cur, header, Edge{})
	} else {
		b.edge(b.cur, header, Edge{})
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	header := b.newBlock()
	b.edge(b.cur, header, Edge{})
	b.cur = header
	b.add(s.X)
	body := b.newBlock()
	after := b.newBlock()
	b.edge(header, body, Edge{})
	b.edge(header, after, Edge{})
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, header})
	b.cur = body
	b.stmt(s.Body)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.edge(b.cur, header, Edge{})
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.switchClauses(s.Body, label, func(cl *ast.CaseClause) {
		for _, e := range cl.List {
			b.add(e)
		}
	})
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.switchClauses(s.Body, label, func(*ast.CaseClause) {})
}

// switchClauses wires the shared clause topology of switch/type-switch:
// header → every clause, header → after when no default exists, clause →
// after (or → next clause on fallthrough).
func (b *cfgBuilder) switchClauses(body *ast.BlockStmt, label string, caseNodes func(*ast.CaseClause)) {
	header := b.ensure()
	after := b.newBlock()
	clauseBlks := make([]*Block, len(body.List))
	for i := range body.List {
		clauseBlks[i] = b.newBlock()
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	hasDefault := false
	for i, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(header, clauseBlks[i], Edge{})
		b.cur = clauseBlks[i]
		caseNodes(cc)
		fellThrough := false
		for _, t := range cc.Body {
			b.stmt(t)
		}
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(clauseBlks) {
				b.edge(b.cur, clauseBlks[i+1], Edge{})
				fellThrough = true
			}
		}
		if !fellThrough {
			b.edge(b.cur, after, Edge{})
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault {
		b.edge(header, after, Edge{})
	}
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	header := b.ensure()
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, after})
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		blk := b.newBlock()
		b.edge(header, blk, Edge{})
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		for _, t := range cc.Body {
			b.stmt(t)
		}
		b.edge(b.cur, after, Edge{})
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	// A select blocks until some case is ready, so there is no header→after
	// edge; an empty select{} never reaches after at all.
	b.cur = after
}

// isPanicCall matches a direct call to the panic builtin. Purely
// syntactic: a local function shadowing panic would be misclassified, a
// trade the repo does not make.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- Function enumeration ----------------------------------------------

// funcBody is one analyzable body: a declaration or a function literal.
type funcBody struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	body *ast.BlockStmt
}

// packageBodies lists every function body in the package, declarations
// first, then each function literal (however nested) as its own entry —
// matching BuildCFG's decision not to descend into literals.
func packageBodies(pkg *Package) []funcBody {
	var out []funcBody
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, funcBody{decl: fd, body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcBody{decl: fd, lit: lit, body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// inspectNoFuncLit walks n in source order without entering function
// literal bodies, which are separate flow graphs.
func inspectNoFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return f(m)
	})
}
