// Command gupt-bench regenerates the GUPT paper's evaluation: every figure
// and table from §6.1 and §7, printed as text tables and optionally dumped
// as CSV series for plotting. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured commentary.
//
// Usage:
//
//	gupt-bench                 # run everything at full size
//	gupt-bench -quick          # reduced sizes (seconds instead of minutes)
//	gupt-bench -exp fig4,fig9  # a subset
//	gupt-bench -csv out/       # additionally write <out>/<id>.csv series
//	gupt-bench -json run.json  # machine-readable report of the run
//	gupt-bench -list           # show available experiment ids
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gupt/internal/experiments"
)

// tabler is what every experiment result renders.
type tabler interface{ Table() string }

// csver is implemented by results with plottable series.
type csver interface{ CSV() string }

// stringResult adapts plain-text results (Table 1) to the tabler interface.
type stringResult string

func (s stringResult) Table() string { return string(s) }

// runner executes one experiment.
type runner func(cfg experiments.Config) (tabler, error)

func runners() map[string]runner {
	return map[string]runner{
		"fig3": func(cfg experiments.Config) (tabler, error) { return experiments.Fig3(cfg) },
		"fig4": func(cfg experiments.Config) (tabler, error) { return experiments.Fig4(cfg) },
		"fig5": func(cfg experiments.Config) (tabler, error) { return experiments.Fig5(cfg) },
		"fig6": func(cfg experiments.Config) (tabler, error) { return experiments.Fig6(cfg) },
		"fig7": func(cfg experiments.Config) (tabler, error) { return experiments.Fig7(cfg) },
		"fig8": func(cfg experiments.Config) (tabler, error) { return experiments.Fig8(cfg) },
		"fig9": func(cfg experiments.Config) (tabler, error) { return experiments.Fig9(cfg) },
		"tab1": func(experiments.Config) (tabler, error) {
			return stringResult(experiments.Table1String()), nil
		},
		"overhead": runOverhead,
		"resampling": func(cfg experiments.Config) (tabler, error) {
			return experiments.ResamplingVariance(cfg)
		},
		"distribution": func(cfg experiments.Config) (tabler, error) {
			return experiments.BudgetDistribution(cfg)
		},
		"optimizer":    func(cfg experiments.Config) (tabler, error) { return experiments.Optimizer(cfg) },
		"timing":       func(cfg experiments.Config) (tabler, error) { return experiments.TimingAttack(cfg) },
		"budgetattack": func(cfg experiments.Config) (tabler, error) { return experiments.BudgetAttack(cfg) },
		"stateattack":  runStateAttack,
	}
}

// runStateAttack builds gupt-app (the marker-probe binary) and runs the
// state side-channel measurement against it.
func runStateAttack(cfg experiments.Config) (tabler, error) {
	dir, err := os.MkdirTemp("", "gupt-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	appPath := filepath.Join(dir, "gupt-app")
	build := exec.Command("go", "build", "-o", appPath, "gupt/cmd/gupt-app")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building gupt-app: %w", err)
	}
	return experiments.StateAttack(cfg, appPath, []string{"-program", "statecheck"}, nil)
}

// runOverhead builds gupt-app next to the bench (it needs a real subprocess
// target) and measures chamber overhead against it.
func runOverhead(cfg experiments.Config) (tabler, error) {
	dir, err := os.MkdirTemp("", "gupt-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	appPath := filepath.Join(dir, "gupt-app")
	build := exec.Command("go", "build", "-o", appPath, "gupt/cmd/gupt-app")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building gupt-app: %w", err)
	}
	appArgs := []string{
		"-program", "kmeans", "-k", "4", "-dims", "10", "-iters", "{iters}",
		"-seed", fmt.Sprint(cfg.Seed),
	}
	return experiments.SandboxOverhead(cfg, appPath, appArgs, nil)
}

func main() {
	log.SetPrefix("gupt-bench: ")
	log.SetFlags(0)

	var (
		quick  = flag.Bool("quick", false, "reduced dataset sizes and trial counts")
		seed   = flag.Int64("seed", 42, "experiment seed")
		exp    = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		csvDir = flag.String("csv", "", "directory to write per-experiment CSV series into")
		jsonTo = flag.String("json", "", "write a machine-readable report of the run to this path")
		list   = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	all := runners()
	ids := make([]string, 0, len(all))
	for id := range all {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	selected := ids
	if *exp != "" {
		selected = strings.Split(*exp, ",")
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	report := &Report{Seed: *seed, Quick: *quick, Experiments: []ExperimentReport{}}
	failed := 0
	for _, id := range selected {
		id = strings.TrimSpace(id)
		run, ok := all[id]
		if !ok {
			log.Printf("unknown experiment %q (use -list)", id)
			failed++
			continue
		}
		start := time.Now()
		result, err := run(cfg)
		report.record(id, result, time.Since(start), err)
		if err != nil {
			log.Printf("%s: %v", id, err)
			failed++
			continue
		}
		fmt.Println(result.Table())
		if *csvDir != "" {
			if c, ok := result.(csver); ok {
				path := filepath.Join(*csvDir, id+".csv")
				if err := os.WriteFile(path, []byte(c.CSV()), 0o644); err != nil {
					log.Printf("%s: writing csv: %v", id, err)
					failed++
				}
			}
		}
	}
	if *jsonTo != "" {
		if err := report.write(*jsonTo); err != nil {
			log.Printf("writing json report: %v", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
