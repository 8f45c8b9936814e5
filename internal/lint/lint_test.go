package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// A fixture package under testdata/<rule> encodes its expectations as
// trailing comments: // want "substring". The harness requires an exact
// file:line match and a substring match on the message, in both
// directions — every diagnostic must be wanted and every want must fire.

type want struct {
	file    string
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`// want "([^"]*)"`)

func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, want{file: path, line: i + 1, substr: m[1]})
			}
		}
	}
	return wants
}

// runFixture lints one testdata package with the given rules and checks
// the diagnostics against the fixture's want comments.
func runFixture(t *testing.T, name string, rules []Rule) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	prog, err := Load(".", []string{dir})
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags := Run(prog, rules)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, abs)
	for _, d := range diags {
		ok := false
		for i := range wants {
			w := &wants[i]
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
				strings.Contains(d.Message, w.substr) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
	if len(diags) == 0 {
		t.Fatalf("fixture %s produced no diagnostics; purity-lint would exit 0 on it", name)
	}
}

// TestLockCheckFixture runs lockflow on the annotation-grammar fixture: the
// *Locked naming check, the unlocked call to an annotated method, and a
// self-deadlock through a call.
func TestLockCheckFixture(t *testing.T) { runFixture(t, "lockcheck", []Rule{&LockFlow{}}) }

func TestLockFlowFixture(t *testing.T) { runFixture(t, "lockflow", []Rule{&LockFlow{}}) }

func TestCrashPointCheckFixture(t *testing.T) {
	runFixture(t, "crashpointcheck", []Rule{&CrashPointCheck{}})
}

func TestErrDropFixture(t *testing.T) { runFixture(t, "errdrop", []Rule{&ErrDrop{}}) }

func TestLockOrderFixture(t *testing.T) { runFixture(t, "lockorder", []Rule{&LockOrder{}}) }

// TestStaleIgnoreFixture runs the stale-suppression audit: a suppression
// whose rule no longer fires at that position is itself reported, one rule
// at a time — a live lockflow entry does not keep a stale errdrop entry on
// the same comment alive.
func TestStaleIgnoreFixture(t *testing.T) {
	runFixture(t, "staleignore", []Rule{&LockFlow{}, &ErrDrop{}})
}

// TestLockOrderDeclFixture checks the declaration diagnostics, which all
// anchor on comment-only lines where want comments cannot trail (an
// annotation inside a //lint:lockorder comment would parse as a class
// name), so the diagnostics are asserted directly.
func TestLockOrderDeclFixture(t *testing.T) {
	prog, err := Load(".", []string{filepath.Join("testdata", "lockorderdecl")})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, []Rule{&LockOrder{}})
	counts := map[string]int{}
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "contradicts the declared lock order"):
			counts["violation"]++
		case strings.Contains(d.Message, "never acquired"):
			counts["never"]++
		case strings.Contains(d.Message, "contradictory //lint:lockorder"):
			counts["contradiction"]++
		case strings.Contains(d.Message, "malformed //lint:lockorder"):
			counts["malformed"]++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for kind, want := range map[string]int{"violation": 1, "never": 1, "contradiction": 1, "malformed": 1} {
		if counts[kind] != want {
			t.Errorf("got %d %s diagnostics, want %d; all: %v", counts[kind], kind, want, diags)
		}
	}
}

// TestRunDeterministic pins the output contract the -json consumers and
// CI diffing rely on: two runs over the same tree produce byte-identical,
// (file, line, column, rule)-sorted diagnostics. The lockorder fixture
// exercises the map-heavy graph code where iteration order could leak.
func TestRunDeterministic(t *testing.T) {
	render := func() ([]Diagnostic, []string) {
		prog, err := Load(".", []string{filepath.Join("testdata", "lockorder")})
		if err != nil {
			t.Fatal(err)
		}
		diags := Run(prog, []Rule{&LockOrder{}})
		var out []string
		for _, d := range diags {
			out = append(out, d.String())
		}
		return diags, out
	}
	diags, first := render()
	if len(first) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	}) {
		t.Errorf("diagnostics are not sorted: %v", first)
	}
	for run := 0; run < 3; run++ {
		if _, got := render(); !slicesEqual(got, first) {
			t.Errorf("run %d differs:\n%v\nvs\n%v", run+2, got, first)
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIgnoreGrammar checks that a reasonless or misspelled //lint:ignore is
// itself reported and suppresses nothing. Want comments cannot trail a
// comment-only line, so this test asserts the diagnostics directly.
func TestIgnoreGrammar(t *testing.T) {
	prog, err := Load(".", []string{filepath.Join("testdata", "ignore")})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, DefaultRules())
	byRule := map[string][]string{}
	for _, d := range diags {
		byRule[d.Rule] = append(byRule[d.Rule], d.Message)
	}
	if n := len(byRule["errdrop"]); n != 2 {
		t.Errorf("got %d errdrop diagnostics, want 2 (broken ignores must not suppress): %v",
			n, byRule["errdrop"])
	}
	if n := len(byRule["ignore"]); n != 2 {
		t.Fatalf("got %d ignore-grammar diagnostics, want 2: %v", n, byRule["ignore"])
	}
	var sawMalformed, sawUnknown bool
	for _, m := range byRule["ignore"] {
		sawMalformed = sawMalformed || strings.Contains(m, "malformed")
		sawUnknown = sawUnknown || strings.Contains(m, "unknown rule")
	}
	if !sawMalformed || !sawUnknown {
		t.Errorf("ignore-grammar diagnostics missing malformed/unknown case: %v", byRule["ignore"])
	}
}

// TestSelfCheck runs the full rule set over the whole module: the repo must
// lint clean, so the gate in scripts/check.sh can be a hard failure.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(prog, DefaultRules()) {
		t.Errorf("repo is not lint-clean: %s", d)
	}
}
