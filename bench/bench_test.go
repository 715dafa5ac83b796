package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestRegistryMatchesBenchmarkJSON fails when the harness registry and the
// declared benchmark drift apart: same names, units, directions and bounds,
// in the same order.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 characters", w.name)
		}
	}

	seen := map[string]bool{}
	checkDef := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the allowed alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		checkDef(d)
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkDef(d)
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the harness has %+v", i, got, d)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs the whole harness at a fiftieth of
// its size: every workload, both passes, all output checks on.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	tmp := t.TempDir()
	for _, w := range workloads {
		// The runs mostly wait (ledger flushes, timing quanta), so they
		// overlap; timings are meaningless here anyway, counts are not.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			checkWorkload(t, w, tmp)
		})
	}
}

// checkWorkload runs both passes of one workload and checks what they emit.
func checkWorkload(t *testing.T, w *workloadDef, tmp string) {
	for _, trace := range []bool{false, true} {
		cfg := &runConfig{w: w, seed: 5, seconds: 0.05, scale: 0.02, trace: trace, tmpRoot: tmp}
		res, tp, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("trace=%v: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
				w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			mv, ok := res.Metrics[d.Name]
			if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.Name, mv, ok)
			}
			if !trace && mv.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, mv.Value)
			}
		}
		if !trace {
			continue
		}
		value := func(name string) float64 { return res.Metrics[name].Value }
		wantEps := epsPerQuery
		wantBlocks := float64(w.numBlocks(cfg.rows()))
		switch w.expect {
		case expectRefused:
			wantEps, wantBlocks = 0, 0
		case expectRepeat:
			wantEps = epsPerQuery * (1 - value("qcache.hit_ratio"))
		}
		if math.Abs(value("eps_per_query")-wantEps) > 1e-12 {
			t.Errorf("%s: eps_per_query = %v, want %v", w.name, value("eps_per_query"), wantEps)
		}
		if got := value("core.blocks_per_query"); got != wantBlocks && (w.expect != expectRepeat || got > wantBlocks) {
			t.Errorf("%s: core.blocks_per_query = %v, want %v", w.name, value("core.blocks_per_query"), wantBlocks)
		}
		if value("compman.sched.queued") != 0 || value("failed_frac") != 0 {
			t.Errorf("%s: sched.queued = %v, failed_frac = %v, want 0", w.name, value("compman.sched.queued"), value("failed_frac"))
		}
		if tp == nil || len(tp.Spans) == 0 || len(tp.Layers) == 0 {
			t.Errorf("%s: traced pass produced no spans or no layer table", w.name)
		}
	}
}
