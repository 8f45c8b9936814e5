package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: file:line: [rule] message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one invariant checker. Check is called once per requested
// package; rules needing cross-package state implement preparer.
type Rule interface {
	Name() string
	Doc() string
	Check(prog *Program, pkg *Package, rep *Reporter)
}

// preparer is implemented by rules that build a whole-program index (marked
// types, lock annotations) before per-package checking starts.
type preparer interface {
	Prepare(prog *Program)
}

// Reporter accumulates diagnostics for one run.
type Reporter struct {
	fset  *token.FileSet
	diags []Diagnostic
}

// Reportf records one diagnostic for rule at pos.
func (r *Reporter) Reportf(rule string, pos token.Pos, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Pos:     r.fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// DefaultRules returns the full rule set in reporting order. Goroutine
// lifetimes are not a rule: internal/leakcheck checks them at run time, in
// the TestMain of the packages that start or drive goroutines.
func DefaultRules() []Rule {
	return []Rule{
		&LockFlow{},
		&CrashPointCheck{},
		&ErrDrop{},
		&LockOrder{},
	}
}

// Run executes the rules over every requested package of prog and returns
// the surviving diagnostics, sorted, with //lint:ignore suppressions
// applied. Malformed or unknown-rule ignore comments are themselves
// reported under the pseudo-rule "ignore" so a typo cannot silently
// disable a check.
func Run(prog *Program, rules []Rule) []Diagnostic {
	rep := &Reporter{fset: prog.Fset}
	ignores := collectSuppressions(prog, rules, rep)
	for _, r := range rules {
		if p, ok := r.(preparer); ok {
			p.Prepare(prog)
		}
	}
	for _, pkg := range prog.Pkgs {
		if !pkg.Requested {
			continue
		}
		for _, r := range rules {
			r.Check(prog, pkg, rep)
		}
	}
	var out []Diagnostic
	for _, d := range rep.diags {
		if !ignores.use(d.Pos, d.Rule) {
			out = append(out, d)
		}
	}
	out = append(out, auditStale(ignores)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// --- Suppressions -------------------------------------------------------
//
// Grammar: //lint:ignore <rule>[,<rule>...] <reason>
//
// The comment suppresses the named rules on its own line (trailing
// comment) and on the line directly below (comment-above style). The
// reason is mandatory: an ignore is a documented exception, not an off
// switch.

// supEntry is one (comment, rule) pair. A comma list makes one entry per
// named rule, all sharing the comment position. used flips when the entry
// suppresses a diagnostic; active entries that never fire are reported as
// stale by auditStale, so a suppression cannot outlive the finding it was
// written for.
type supEntry struct {
	pos    token.Position
	rule   string
	active bool // the named rule is in the running set, so staleness is decidable
	used   bool
}

type suppressions struct {
	// byLine maps file → line → rule → the covering entry.
	byLine  map[string]map[int]map[string]*supEntry
	entries []*supEntry
}

// use marks the entry suppressing rule at pos as used and reports whether
// there is one: Run asks it of every diagnostic.
func (s suppressions) use(pos token.Position, rule string) bool {
	e := s.byLine[pos.Filename][pos.Line][rule]
	if e == nil {
		return false
	}
	e.used = true
	return true
}

func collectSuppressions(prog *Program, rules []Rule, rep *Reporter) suppressions {
	// Grammar is validated against the full default rule set plus whatever
	// is running, so a run of a rule subset (a fixture test) does not
	// misreport the other rules' suppressions as unknown rules. Staleness,
	// though, is only decidable for rules that actually ran.
	running := map[string]bool{}
	for _, r := range rules {
		running[r.Name()] = true
	}
	known := map[string]bool{}
	for _, r := range DefaultRules() {
		known[r.Name()] = true
	}
	for name := range running {
		known[name] = true
	}
	sup := suppressions{byLine: map[string]map[int]map[string]*supEntry{}}
	for _, pkg := range prog.Pkgs {
		if !pkg.Requested {
			continue
		}
		eachIgnore(pkg, func(c *ast.Comment, names []string) {
			if names == nil {
				rep.Reportf("ignore", c.Pos(), "malformed //lint:ignore: want \"//lint:ignore <rule> <reason>\"")
				return
			}
			pos := prog.Fset.Position(c.Pos())
			for _, name := range names {
				if !known[name] {
					rep.Reportf("ignore", c.Pos(), "//lint:ignore names unknown rule %q", name)
					continue
				}
				entry := &supEntry{pos: pos, rule: name, active: running[name]}
				sup.entries = append(sup.entries, entry)
				file := sup.byLine[pos.Filename]
				if file == nil {
					file = map[int]map[string]*supEntry{}
					sup.byLine[pos.Filename] = file
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if file[line] == nil {
						file[line] = map[string]*supEntry{}
					}
					file[line][name] = entry
				}
			}
		})
	}
	return sup
}

// eachIgnore calls fn for every //lint:ignore comment in pkg, in source
// order, with the rule names it lists ("//lint:ignore a,b reason"). names
// is nil for a malformed comment — one with no reason after the rules. A
// comment covers its own line and the line below.
func eachIgnore(pkg *Package, fn func(c *ast.Comment, names []string)) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				if fields := strings.Fields(text); len(fields) >= 2 {
					fn(c, strings.Split(fields[0], ","))
				} else {
					fn(c, nil)
				}
			}
		}
	}
}

// auditStale reports every active suppression entry that was never used
// this run: the rule it names ran and stayed silent at that position, so
// the comment documents an exception that no longer exists. Entries are
// judged one rule at a time, so a live rule on a comma list does not vouch
// for a stale one. Stale reports carry the pseudo-rule "ignore" and are
// appended after suppression filtering, so a stale comment cannot
// suppress its own report.
func auditStale(sup suppressions) []Diagnostic {
	var out []Diagnostic
	for _, e := range sup.entries {
		if !e.active || e.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:  e.pos,
			Rule: "ignore",
			Message: fmt.Sprintf("stale //lint:ignore: rule %q no longer fires here — delete the suppression or move it back to the finding it documents",
				e.rule),
		})
	}
	return out
}

// --- Shared AST/type helpers -------------------------------------------

// posAt renders pos as "file.go:line" for cross-references inside a
// message; an invalid pos is the caller-held state a body starts with.
func posAt(fset *token.FileSet, pos token.Pos) string {
	if !pos.IsValid() {
		return "entry"
	}
	pp := fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortPkg(pp.Filename), pp.Line)
}

// exprKey renders a selector chain ("a", "a.pyr") for comparing lock
// owners and call receivers. Expressions more complex than a chain of
// identifiers and field selections get a position-qualified key so they
// never alias each other.
func exprKey(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.ParenExpr:
		return exprKey(fset, e.X)
	case *ast.StarExpr:
		return exprKey(fset, e.X)
	case *ast.SelectorExpr:
		return exprKey(fset, e.X) + "." + e.Sel.Name
	default:
		return fmt.Sprintf("~expr@%v", fset.Position(e.Pos()))
	}
}

// calleeFunc resolves the *types.Func a call invokes, or nil for builtins,
// conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (fmt.Printf): not a selection.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvNamed returns the named type of a method's receiver, unwrapping one
// pointer, or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isMethod reports whether fn is the named method on the named receiver
// type defined in package pkgPath.
func isMethod(fn *types.Func, pkgPath, recvName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	n := recvNamed(fn)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == recvName
}

// methodRef identifies a method by defining package, receiver type name,
// and method name.
type methodRef struct {
	pkg, recv, name string
}

// derefNamed unwraps pointers down to a named type, returning it (or nil
// when the type underneath is not named).
func derefNamed(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}
