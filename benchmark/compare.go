package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSummary(path string) (summary, error) {
	var s summary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareFiles prints, per workload and end-to-end metric, the value in a
// and in b, how much worse b is as a share of a, and the metric's bound, and
// marks what is beyond its bound. Per-layer metrics have no bound; they are
// listed when they differ. It returns how many metrics are beyond bound.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := readSummary(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return 0, err
	}
	worse := 0
	for _, sp := range specs {
		wa, okA := a.Workloads[sp.name]
		wb, okB := b.Workloads[sp.name]
		if !okA || !okB {
			continue
		}
		fmt.Fprintf(w, "%s\n  %-40s %16s %16s %9s %7s\n", sp.name, "metric", "a", "b", "worse by", "bound")
		if wb.Failed > wa.Failed {
			worse++
			fmt.Fprintf(w, "  %-40s %16d %16d %9s %7s  BEYOND BOUND\n", "failed operations", wa.Failed, wb.Failed, "", "0")
		}
		for _, d := range endToEnd {
			va, vb := wa.Metrics[d.name].Value, wb.Metrics[d.name].Value
			by := worseBy(d, va, vb)
			mark := ""
			if by > d.bound {
				mark = "  BEYOND BOUND"
				worse++
			}
			fmt.Fprintf(w, "  %-40s %16.4f %16.4f %+8.2f%% %6.0f%%%s\n", d.name, va, vb, 100*by, 100*d.bound, mark)
		}
		for _, d := range perLayer {
			va, vb := wa.Metrics[d.name].Value, wb.Metrics[d.name].Value
			if va != vb {
				fmt.Fprintf(w, "  %-40s %16.4f %16.4f %+8.2f%%\n", d.name, va, vb, 100*worseBy(d, va, vb))
			}
		}
	}
	return worse, nil
}

// worseBy is how much worse b is than a, as a share of a; negative when b is
// better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		a = 1e-12
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
