package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, per workload and end-to-end metric, the change from
// OLD to NEW as a share of OLD, the metric's bound and a verdict:
//
//	ok          NEW is no worse than OLD by more than the bound
//	regression  NEW is worse than OLD by more than the bound
//	unresolved  either side's round-to-round spread exceeds the bound, so
//	            the pair cannot tell a change of that size from noise
//
// It returns 1 on any regression or a higher failed fraction, else 0.
func compareFiles(out io.Writer, oldPath, newPath string) int {
	var suites [2]*suiteResult
	for i, path := range []string{oldPath, newPath} {
		s, err := loadSuite(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		suites[i] = s
	}
	return compareSuites(out, suites[0], suites[1])
}

func compareSuites(out io.Writer, oldSuite, newSuite *suiteResult) int {
	byName := map[string]*runResult{}
	for _, r := range oldSuite.EndToEnd {
		byName[r.Workload] = r
	}
	code := 0
	fmt.Fprintf(out, "%-15s %-19s %12s %12s %9s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, nr := range newSuite.EndToEnd {
		or, ok := byName[nr.Workload]
		if !ok {
			fmt.Fprintf(out, "%-15s only in NEW\n", nr.Workload)
			continue
		}
		for _, d := range endToEnd {
			o, n := or.Metrics[d.Name].Value, nr.Metrics[d.Name].Value
			if o == 0 {
				fmt.Fprintf(out, "%-15s %-19s %12.4f %12.4f %9s %5.0f%%  unresolved (old is 0)\n", nr.Workload, d.Name, o, n, "-", 100*d.Bound)
				continue
			}
			change := (n - o) / o // share of OLD's median
			worse := change
			if d.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			switch {
			case or.Spread[d.Name] > d.Bound || nr.Spread[d.Name] > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread old %.1f%%, new %.1f%%)", 100*or.Spread[d.Name], 100*nr.Spread[d.Name])
			case worse > d.Bound:
				verdict = "regression"
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-19s %12.4f %12.4f %+8.1f%% %5.0f%%  %s\n",
				nr.Workload, d.Name, o, n, 100*change, 100*d.Bound, verdict)
		}
		oldFrac := float64(or.Failed) / float64(max(or.Attempted, 1))
		newFrac := float64(nr.Failed) / float64(max(nr.Attempted, 1))
		if newFrac > oldFrac {
			fmt.Fprintf(out, "%-15s failed_frac rose from %d/%d to %d/%d: regression\n",
				nr.Workload, or.Failed, or.Attempted, nr.Failed, nr.Attempted)
			code = 1
		}
	}
	fmt.Fprintln(out, "change is (new-old)/old; a bound applies in the metric's worse direction only")
	return code
}
