// Command purity-lint runs the repo's invariant checker: five rules
// that enforce the conventions Purity's correctness argument rests on —
// lock annotations and path-sensitive lock states (backed by checked
// callee summaries), crash-sweep coverage of durable writes, no dropped
// errors, plus the interprocedural rules:
// goroutinelife (no goroutine spawns a provably unexitable loop) and
// lockorder (the whole-module lock-acquisition graph is acyclic and
// matches the declared //lint:lockorder hierarchy). Connection deadlines,
// admission releases, sequence numbers and the commit point need no rule:
// wire.Conn arms its own deadlines, a server request returns what
// admission took in its one release, a tuple.Watermark cannot be stamped
// into a fact, the crash sweep checks that no seq is carried by two keys,
// a fact apply takes the nvram.Receipt of its record's append, and the
// flush watermark advances only under the exclusive world lock. See
// internal/lint and the "Machine-checked invariants" section of DESIGN.md.
//
// Usage:
//
//	go run ./cmd/purity-lint ./...
//	go run ./cmd/purity-lint -list
//	go run ./cmd/purity-lint -json ./... > findings.json
//	go run ./cmd/purity-lint -graph lock ./... > lockorder.dot
//	go run ./cmd/purity-lint -graph calls -json ./... > callgraph.json
//
// -list prints the rules. -graph skips rule checking and instead emits the
// inferred lock-order graph ("lock") or the module call graph ("calls") as
// Graphviz DOT, or as JSON with -json — DESIGN.md's lock-hierarchy section
// is regenerated from this output.
//
// Exit status 0 when clean, 1 when any diagnostic survives suppression,
// 2 on load or usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"purity/internal/lint"
)

// jsonDiag is the -json wire form of one diagnostic. The array is emitted
// in lint.Run's deterministic order (file, line, column, rule), so two
// runs over the same tree produce byte-identical output.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	var (
		list   = flag.Bool("list", false, "list the rules and exit")
		asJSON = flag.Bool("json", false, "emit diagnostics (or -graph output) as JSON on stdout")
		graph  = flag.String("graph", "", "emit a graph instead of diagnostics: \"lock\" (lock-order graph) or \"calls\" (call graph); DOT by default, JSON with -json")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: purity-lint [-list] [-json] [-graph lock|calls] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	rules := lint.DefaultRules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-16s %s\n", r.Name(), r.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "purity-lint: %v\n", err)
		os.Exit(2)
	}
	prog, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "purity-lint: %v\n", err)
		os.Exit(2)
	}
	if *graph != "" {
		var dump interface{ DOT() string }
		switch *graph {
		case "lock":
			dump = lint.DumpLockGraph(prog)
		case "calls":
			dump = lint.DumpCallGraph(prog)
		default:
			fmt.Fprintf(os.Stderr, "purity-lint: unknown graph %q (want \"lock\" or \"calls\")\n", *graph)
			os.Exit(2)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(dump); err != nil {
				fmt.Fprintf(os.Stderr, "purity-lint: %v\n", err)
				os.Exit(2)
			}
		} else {
			fmt.Print(dump.DOT())
		}
		return
	}
	diags := lint.Run(prog, rules)
	relName := func(name string) string {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: relName(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "purity-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d: [%s] %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Rule, d.Message)
		}
		if len(diags) > 0 {
			fmt.Printf("purity-lint: %d problem(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
