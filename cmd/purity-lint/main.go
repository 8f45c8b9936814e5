// Command purity-lint runs the repo's invariant checker: three rules
// that enforce the conventions Purity's correctness argument rests on —
// lock annotations and path-sensitive lock states (backed by checked
// callee summaries), crash-sweep coverage of durable writes, and no
// dropped errors. Lock order, connection deadlines, admission releases,
// sequence numbers, the commit point and goroutine lifetimes need no rule:
// every lock acquisition in a test binary is checked against
// internal/lockrank's rank table, wire.Conn arms its own deadlines, a
// server request returns what admission took in its one release, a
// tuple.Watermark cannot be stamped into a fact, the crash sweep checks
// that no seq is carried by two keys, a fact apply takes the nvram.Receipt
// of its record's append, the flush watermark advances only under the
// exclusive world lock, and the front end's and engine's tests fail when a
// goroutine outlives them (internal/leakcheck). See internal/lint and the
// "Machine-checked invariants" section of DESIGN.md.
//
// Usage:
//
//	go run ./cmd/purity-lint ./...
//	go run ./cmd/purity-lint -list
//	go run ./cmd/purity-lint -json ./... > findings.json
//
// -list prints the rules.
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
		asJSON = flag.Bool("json", false, "emit diagnostics as JSON on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: purity-lint [-list] [-json] [packages]\n")
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
