package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestExperimentRegistry ensures the index is complete and addressable.
func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 {
		t.Fatalf("experiment count = %d, want 19", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Name == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %s", e.Name)
		}
		seen[e.Name] = true
	}
	var buf bytes.Buffer
	if err := Run("nope", Options{Out: &buf}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The numbering has gaps where an experiment moved to benchmark/ (10),
	// runs under another name (11 is "CS") or was deleted with its claim
	// (13); such a number must stay an unknown-experiment error.
	for _, n := range []int{10, 11, 13} {
		name := fmt.Sprintf("E%d", n)
		err := Run(name, Options{Out: &buf})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("Run(%s) = %v, want the unknown-experiment error", name, err)
		}
	}
}

// TestCheapExperimentsRun smoke-tests the model-only experiments (no big
// simulated workloads) end to end.
func TestCheapExperimentsRun(t *testing.T) {
	for _, name := range []string{"F7", "E5"} {
		var buf bytes.Buffer
		if err := Run(name, Options{Out: &buf, Quick: true, Seed: 1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() < 200 {
			t.Fatalf("%s produced only %d bytes", name, buf.Len())
		}
	}
}

// TestF6MediumTable checks the harness reproduces Figure 6's structure.
func TestF6MediumTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("F6", Options{Out: &buf, Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Source", "Start:End", "none", "RO", "RW"} {
		if !strings.Contains(out, want) {
			t.Fatalf("F6 output missing %q:\n%s", want, out)
		}
	}
}

// TestE4AnchorAlignment runs the alignment sweep and requires hits at every
// phase — the §4.7 claim itself.
func TestE4AnchorAlignment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulated array")
	}
	var buf bytes.Buffer
	if err := Run("E4", Options{Out: &buf, Quick: true, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, " 0/16") {
		t.Fatalf("an alignment found no duplicates:\n%s", out)
	}
}
