// Package lint implements purity-lint: a standalone static analyzer that
// enforces the repo's concurrency, durability, and monotonicity conventions
// — the invariants the compiler cannot see. The paper's correctness argument
// leans on discipline ("facts are never updated in place", "Caller holds
// mu.", "every durable write is enumerable by the crash sweep"); this
// package turns that discipline into machine-checked rules.
//
// The analyzer is stdlib-only by design: go/parser for syntax, go/types for
// semantics, and go/importer's source importer for the standard library, so
// the tool builds and runs anywhere the repo does, with no x/tools
// dependency. Module-internal packages are discovered by walking the module
// tree and are type-checked in dependency order by the loader below.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package of the module.
type Package struct {
	Path      string // import path ("purity/internal/core")
	Dir       string // absolute directory
	RelDir    string // directory relative to the module root ("" for root)
	Requested bool   // matched a load pattern (rules only run on these)
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info

	fset    *token.FileSet
	imports []string // module-internal import paths, for topo ordering
}

// Program is the loaded slice of the module: every requested package plus
// the module-internal dependencies needed to type-check them.
type Program struct {
	Fset    *token.FileSet
	ModRoot string
	ModPath string
	Pkgs    []*Package // in type-check (dependency) order
	ByPath  map[string]*Package

	sums *summaries // lazily-built interprocedural summary table (summary.go)
}

// FindModuleRoot walks up from dir to the directory holding go.mod and
// returns it together with the module path declared there.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Load parses and type-checks the packages matching patterns, resolved
// relative to dir. Patterns are directories ("./internal/core",
// "internal/lint/testdata/errdrop") or recursive globs ("./...",
// "./internal/..."). Recursive globs skip testdata, vendor, and hidden
// directories — matching the go tool — but an explicit directory pattern
// loads anything, which is how fixture packages under testdata are linted.
func Load(dir string, patterns []string) (*Program, error) {
	base, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := FindModuleRoot(base)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    token.NewFileSet(),
		ModRoot: root,
		ModPath: modPath,
		ByPath:  map[string]*Package{},
	}

	var requested []string
	for _, pat := range patterns {
		switch {
		case pat == "..." || strings.HasSuffix(pat, "/...") || pat == "./...":
			walkBase := filepath.Join(base, strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/"))
			err := filepath.WalkDir(walkBase, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if p != walkBase && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					requested = append(requested, p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			p := pat
			if !filepath.IsAbs(p) {
				p = filepath.Join(base, p)
			}
			if !hasGoFiles(p) {
				return nil, fmt.Errorf("lint: no Go files in %s", pat)
			}
			requested = append(requested, p)
		}
	}
	if len(requested) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}
	sort.Strings(requested)

	for _, d := range requested {
		if _, err := prog.parseDir(d, true); err != nil {
			return nil, err
		}
	}
	// Pull in module-internal dependencies until the import closure is
	// parsed. The standard library is handled by the source importer.
	for {
		var missing []string
		for _, p := range prog.Pkgs {
			for _, imp := range p.imports {
				if prog.ByPath[imp] == nil {
					missing = append(missing, imp)
				}
			}
		}
		if len(missing) == 0 {
			break
		}
		sort.Strings(missing)
		for _, imp := range missing {
			if prog.ByPath[imp] != nil {
				continue
			}
			rel := strings.TrimPrefix(strings.TrimPrefix(imp, modPath), "/")
			if _, err := prog.parseDir(filepath.Join(root, filepath.FromSlash(rel)), false); err != nil {
				return nil, fmt.Errorf("lint: resolving import %q: %w", imp, err)
			}
		}
	}

	ordered, err := prog.topoOrder()
	if err != nil {
		return nil, err
	}
	prog.Pkgs = ordered
	if err := prog.typeCheck(); err != nil {
		return nil, err
	}
	return prog, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// parseDir parses the non-test Go files of one directory into a Package
// (without type information yet) and registers it in the program.
func (prog *Program) parseDir(dir string, requested bool) (*Package, error) {
	rel, err := filepath.Rel(prog.ModRoot, dir)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module %s", dir, prog.ModRoot)
	}
	path := prog.ModPath
	if rel != "." {
		path = prog.ModPath + "/" + filepath.ToSlash(rel)
	}
	if p := prog.ByPath[path]; p != nil {
		p.Requested = p.Requested || requested
		return p, nil
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Requested: requested, fset: prog.Fset}
	if rel != "." {
		pkg.RelDir = filepath.ToSlash(rel)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip == prog.ModPath || strings.HasPrefix(ip, prog.ModPath+"/") {
				pkg.imports = append(pkg.imports, ip)
			}
		}
	}
	prog.Pkgs = append(prog.Pkgs, pkg)
	prog.ByPath[path] = pkg
	return pkg, nil
}

// topoOrder sorts packages so every module-internal import precedes its
// importer — the order type-checking requires.
func (prog *Program) topoOrder() ([]*Package, error) {
	const (
		white = iota // unvisited
		grey         // on the DFS stack: revisiting means an import cycle
		black        // done
	)
	state := map[*Package]int{}
	var out []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		}
		state[p] = grey
		deps := append([]string(nil), p.imports...)
		sort.Strings(deps)
		for _, imp := range deps {
			if err := visit(prog.ByPath[imp]); err != nil {
				return err
			}
		}
		state[p] = black
		out = append(out, p)
		return nil
	}
	stable := append([]*Package(nil), prog.Pkgs...)
	sort.Slice(stable, func(i, j int) bool { return stable[i].Path < stable[j].Path })
	for _, p := range stable {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// progImporter resolves module-internal imports from the program and
// everything else (the standard library) through the source importer.
type progImporter struct {
	prog *Program
	std  types.ImporterFrom
}

func (im *progImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *progImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := im.prog.ByPath[path]; p != nil {
		if p.Types == nil {
			return nil, fmt.Errorf("lint: internal error: %s imported before being checked", path)
		}
		return p.Types, nil
	}
	return im.std.ImportFrom(path, srcDir, mode)
}

func (prog *Program) typeCheck() error {
	// The source importer type-checks the standard library from $GOROOT/src;
	// with cgo disabled it sees the pure-Go variants of packages like net,
	// which have identical exported types and need no C toolchain.
	build.Default.CgoEnabled = false
	std, ok := importer.ForCompiler(prog.Fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	imp := &progImporter{prog: prog, std: std}

	for _, p := range prog.Pkgs {
		var errs []error
		conf := types.Config{
			Importer: imp,
			Error: func(err error) {
				if len(errs) < 10 {
					errs = append(errs, err)
				}
			},
		}
		p.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		tpkg, _ := conf.Check(p.Path, prog.Fset, p.Files, p.Info)
		if len(errs) > 0 {
			msgs := make([]string, len(errs))
			for i, e := range errs {
				msgs[i] = e.Error()
			}
			return fmt.Errorf("lint: %s does not type-check:\n\t%s", p.Path, strings.Join(msgs, "\n\t"))
		}
		p.Types = tpkg
	}
	return nil
}
