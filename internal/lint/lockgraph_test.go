package lint

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) *Program {
	t.Helper()
	prog, err := Load(".", []string{filepath.Join("testdata", name)})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestLockGraphDump pins the exported lock-order graph of the lockorder
// fixture — classes, edges with their R/W modes and witness sites, and the
// cycles — plus how DOT draws them: read-shared edges dashed, cycle edges
// red.
func TestLockGraphDump(t *testing.T) {
	d := DumpLockGraph(loadFixture(t, "lockorder"))
	site := func(line int) string {
		return fmt.Sprintf("internal/lint/testdata/lockorder/lockorder.go:%d", line)
	}
	want := &LockGraphDump{
		Classes: []string{
			"lockorder.A.mu", "lockorder.B.mu", "lockorder.C.mu", "lockorder.D.mu",
			"lockorder.E.mu", "lockorder.F.mu", "lockorder.G.mu",
		},
		Edges: []LockEdgeDump{
			{From: "lockorder.A.mu", To: "lockorder.B.mu", Site: site(23), In: "lockorder.forward"},
			{From: "lockorder.B.mu", To: "lockorder.A.mu", Site: site(32), In: "lockorder.reverse"},
			{From: "lockorder.C.mu", To: "lockorder.D.mu", FromRead: true, ToRead: true, Site: site(46), In: "lockorder.readForward"},
			{From: "lockorder.D.mu", To: "lockorder.C.mu", FromRead: true, ToRead: true, Site: site(53), In: "lockorder.readReverse"},
			{From: "lockorder.E.mu", To: "lockorder.F.mu", Site: site(73), In: "lockorder.eThenF", Via: []string{"lockorder.lockF"}},
			{From: "lockorder.F.mu", To: "lockorder.E.mu", Site: site(79), In: "lockorder.fThenE"},
			{From: "lockorder.G.mu", To: "lockorder.G.mu", Site: site(93), In: "lockorder.chain"},
		},
		Cycles: [][]string{
			{"lockorder.G.mu", "lockorder.G.mu"},
			{"lockorder.A.mu", "lockorder.B.mu", "lockorder.A.mu"},
			{"lockorder.E.mu", "lockorder.F.mu", "lockorder.E.mu"},
		},
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("lock graph dump:\n got %+v\nwant %+v", d, want)
	}

	dot := d.DOT()
	for _, e := range d.Edges {
		prefix := fmt.Sprintf("\t%q -> %q [", e.From, e.To)
		var line string
		for _, l := range strings.Split(dot, "\n") {
			if strings.HasPrefix(l, prefix) {
				line = l
			}
		}
		if line == "" {
			t.Errorf("DOT has no edge %s -> %s:\n%s", e.From, e.To, dot)
			continue
		}
		readShared := e.FromRead && e.ToRead
		if strings.Contains(line, "style=dashed") != readShared {
			t.Errorf("DOT edge %s: dashed must mean read-shared (R→R = %v)", line, readShared)
		}
		if strings.Contains(line, "color=red") == readShared {
			t.Errorf("DOT edge %s: every blocking fixture edge lies on a cycle and must be red; R→R never", line)
		}
	}
}

// TestCallGraphDump pins the exported call graph of the summary fixture:
// nodes (literals as func@file:line), deduplicated edges, and the sync bit
// DOT renders as a dashed line when false.
func TestCallGraphDump(t *testing.T) {
	d := DumpCallGraph(loadFixture(t, "summary"))
	want := &CallGraphDump{
		Nodes: []string{
			"func@summary.go:40", "summary.ReadRec", "summary.looper.Read",
			"summary.rec.Forever", "summary.rec.LockHelper", "summary.rec.LockViaHelper",
			"summary.rec.Ping", "summary.rec.Pong", "summary.rec.Start", "summary.rec.Tick",
		},
		Edges: []CallEdgeDump{
			{From: "summary.ReadRec", To: "summary.ReadRec", Sync: true},
			{From: "summary.ReadRec", To: "summary.looper.Read", Sync: true},
			{From: "summary.rec.LockViaHelper", To: "summary.rec.LockHelper", Sync: true},
			{From: "summary.rec.Ping", To: "summary.rec.Pong", Sync: true},
			{From: "summary.rec.Pong", To: "summary.rec.Ping", Sync: true},
			{From: "summary.rec.Start", To: "func@summary.go:40", Sync: true},
			{From: "summary.rec.Start", To: "summary.rec.Tick"},
		},
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("call graph dump:\n got %+v\nwant %+v", d, want)
	}
	dot := d.DOT()
	for _, l := range []string{
		"\t\"summary.rec.Start\" -> \"summary.rec.Tick\" [style=dashed];\n",
		"\t\"summary.rec.Ping\" -> \"summary.rec.Pong\";\n",
	} {
		if !strings.Contains(dot, l) {
			t.Errorf("call graph DOT lacks %q:\n%s", l, dot)
		}
	}
}
