// Command bench is the repository's one benchmark harness: seven workloads
// over the embedded library and the hosted server, ten-second closed-loop
// runs of short fixed-size rounds reported by their quiet decile, output checks inside
// every run, and a traced pass that replays queries through each layer's
// exported functions to produce a per-layer table next to every end-to-end
// number. See README.md in this directory.
//
//	bash bench/run.sh -seed 7                      # every workload, both passes
//	bash bench/run.sh -workload served_mean -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: every workload, one child process each)")
		seed         = flag.Int64("seed", 1, "workload seed: dataset and every query derive from it")
		seconds      = flag.Float64("seconds", 10, "how long the timed rounds measure")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
		scale        = flag.Float64("scale", 1, "shrink table and round sizes (tests only; reported runs use 1)")
		compare      = flag.Bool("compare", false, "compare two suite files: -compare OLD.json NEW.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare OLD.json NEW.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	dir, err := benchDir()
	if err != nil {
		fatal(2, "%v", err)
	}
	outDir := filepath.Join(dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(2, "%v", err)
	}

	if *workloadName == "" {
		os.Exit(runSuite(dir, *seed, *seconds, *scale))
	}

	w := findWorkload(*workloadName)
	if w == nil {
		fatal(2, "unknown workload %q", *workloadName)
	}
	if *seconds <= 0 || *scale <= 0 {
		fatal(2, "-seconds and -scale must be positive")
	}
	cfg := &runConfig{
		w: w, seed: *seed, seconds: *seconds, scale: *scale,
		trace: *trace != 0, tmpRoot: outDir,
	}
	res, tp, err := runWorkload(cfg)
	if err != nil {
		fatal(1, "%s: %v", w.name, err)
	}
	printResult(res, tp)
	suffix := ".json"
	if cfg.trace {
		suffix = ".layers.json"
		if err := tp.writeSpans(filepath.Join(outDir, w.name+".trace.json")); err != nil {
			fatal(1, "%v", err)
		}
	}
	if err := writeJSON(filepath.Join(outDir, w.name+suffix), res); err != nil {
		fatal(1, "%v", err)
	}

	// The driver's contract: the last line of standard output is one JSON
	// object with exactly these keys.
	last, _ := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	})
	fmt.Println(string(last))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// benchDir finds this harness's directory from the working directory: the
// repository root (bench/) or the harness directory itself.
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "run.sh")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repository root or from bench/ (run.sh not found)")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit and, for the
// end-to-end pass, the p25–p75 spread across rounds.
func printResult(res *runResult, tp *tracePass) {
	pass := "end-to-end"
	defs := endToEnd
	if res.Trace {
		pass, defs = "per-layer", perLayer
	}
	fmt.Printf("== %s  seed %d  %s pass  %d ops in %d rounds, %d failed\n",
		res.Workload, res.Seed, pass, res.Attempted, res.Rounds, res.Failed)
	for _, d := range defs {
		mv := res.Metrics[d.Name]
		if sp, ok := res.Spread[d.Name]; ok {
			fmt.Printf("  %-36s %14.4f %-6s spread %5.1f%%\n", d.Name, mv.Value, mv.Unit, 100*sp)
		} else {
			fmt.Printf("  %-36s %14.4f %s\n", d.Name, mv.Value, mv.Unit)
		}
	}
	if tp != nil {
		tp.printLayerTable(os.Stdout)
	}
	sort.Strings(res.Problems)
	for _, p := range res.Problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}
