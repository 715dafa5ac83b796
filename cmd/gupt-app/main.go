// Command gupt-app bundles GUPT's built-in analysis programs as a
// standalone executable speaking the sandbox chamber protocol: one JSON
// Request on stdin, one JSON Response on stdout. A sandbox.Subprocess
// chamber launches it once per data block, as the §6 experiments do.
// Neither the embedded platform nor the hosted service does.
//
// Usage:
//
//	gupt-app -program mean -col 0
//	gupt-app -program median -col 2
//	gupt-app -program variance -col 1
//	gupt-app -program percentile -col 0 -p 0.9
//	gupt-app -program kmeans -k 4 -dims 10 -iters 20 -seed 1
//	gupt-app -program logreg -dims 10 -label 10 -iters 100 -rate 0.3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

func main() {
	var (
		program = flag.String("program", "", "program: mean | median | variance | percentile | kmeans | logreg")
		col     = flag.Int("col", 0, "target column for scalar statistics")
		p       = flag.Float64("p", 0.5, "quantile for -program percentile")
		k       = flag.Int("k", 2, "cluster count for -program kmeans")
		dims    = flag.Int("dims", 1, "feature dimensions for kmeans/logreg")
		label   = flag.Int("label", 0, "label column for -program logreg")
		iters   = flag.Int("iters", 20, "logreg: gradient passes; kmeans: at most N Lloyd iterations")
		rate    = flag.Float64("rate", 0.1, "learning rate for -program logreg")
		seed    = flag.Int64("seed", 1, "seed for -program kmeans")
	)
	flag.Parse()

	// statecheck is the state-attack probe used by the side-channel
	// experiments: it writes a marker in its scratch space and reports
	// whether a marker from a previous execution survived (it never should
	// under GUPT's chambers).
	if *program == "statecheck" {
		if err := sandbox.ServeApp(os.Stdin, os.Stdout, stateCheck); err != nil {
			fmt.Fprintln(os.Stderr, "gupt-app:", err)
			os.Exit(1)
		}
		return
	}

	prog, err := buildProgram(*program, *col, *p, *k, *dims, *label, *iters, *rate, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gupt-app:", err)
		os.Exit(2)
	}
	if err := sandbox.ServeApp(os.Stdin, os.Stdout, prog.Run); err != nil {
		fmt.Fprintln(os.Stderr, "gupt-app:", err)
		os.Exit(1)
	}
}

// stateCheck implements the state-attack probe.
func stateCheck(block []mathutil.Vec) (mathutil.Vec, error) {
	marker := filepath.Join(os.Getenv(sandbox.ScratchEnv), "marker")
	found := 0.0
	if _, err := os.Stat(marker); err == nil {
		found = 1
	}
	if err := os.WriteFile(marker, []byte("leak"), 0o600); err != nil {
		return nil, err
	}
	return mathutil.Vec{found}, nil
}

func buildProgram(name string, col int, p float64, k, dims, label, iters int, rate float64, seed int64) (analytics.Program, error) {
	switch name {
	case "mean":
		return analytics.Mean{Col: col}, nil
	case "median":
		return analytics.Median{Col: col}, nil
	case "variance":
		return analytics.Variance{Col: col}, nil
	case "percentile":
		return analytics.Percentile{Col: col, P: p}, nil
	case "kmeans":
		return analytics.KMeans{K: k, FeatureDims: dims, Iters: iters, Seed: seed}, nil
	case "logreg":
		return analytics.LogisticRegression{FeatureDims: dims, LabelCol: label, Iters: iters, LearnRate: rate}, nil
	case "":
		return nil, fmt.Errorf("missing -program")
	default:
		return nil, fmt.Errorf("unknown program %q", name)
	}
}
