package gupt

// bench_test.go regenerates the paper's evaluation as testing.B benchmarks,
// one per table/figure (see DESIGN.md §2 for the experiment index). Each
// benchmark runs the corresponding internal/experiments runner and reports
// the headline quantity of that artifact as a custom metric, so
// `go test -bench=. -benchmem` doubles as a reproduction report. Benchmarks
// default to the Quick configuration; set GUPT_BENCH_FULL=1 for paper-size
// runs (minutes, not seconds).

import (
	"context"
	"os"
	"strconv"
	"testing"

	"gupt/internal/experiments"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

var benchCtx = context.Background()

// TestMain lets the test binary double as the subprocess-chamber app for
// BenchmarkSandboxOverhead, mirroring the re-exec pattern used by the
// sandbox package's own tests.
func TestMain(m *testing.M) {
	if os.Getenv("GUPT_BENCH_APP") == "kmeans" {
		iters, err := strconv.Atoi(os.Getenv("GUPT_APP_ITERS"))
		if err != nil || iters <= 0 {
			iters = 10
		}
		err = sandbox.ServeApp(os.Stdin, os.Stdout, func(block []mathutil.Vec) (mathutil.Vec, error) {
			return KMeans{K: 4, FeatureDims: 10, Iters: iters, Seed: 42}.Run(block)
		})
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func benchConfig() experiments.Config {
	return experiments.Config{Seed: 42, Quick: os.Getenv("GUPT_BENCH_FULL") == ""}
}

// BenchmarkFig3LogisticRegression regenerates Figure 3: classification
// accuracy vs ε. Metrics: accuracy at the largest ε and the non-private
// baseline.
func BenchmarkFig3LogisticRegression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GUPTTight[len(r.GUPTTight)-1], "acc@maxEps")
		b.ReportMetric(r.NonPrivate, "acc@nonprivate")
	}
}

// BenchmarkFig4KMeansICV regenerates Figure 4: normalized intra-cluster
// variance vs ε for GUPT-tight and GUPT-loose (baseline = 100).
func BenchmarkFig4KMeansICV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Epsilons) - 1
		b.ReportMetric(r.GUPTTight[last], "tightICV@maxEps")
		b.ReportMetric(r.GUPTLoose[last], "looseICV@maxEps")
	}
}

// BenchmarkFig5PINQComparison regenerates Figure 5: GUPT's perturbation is
// independent of the declared iteration count while PINQ's grows with it.
func BenchmarkFig5PINQComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Iterations) - 1
		b.ReportMetric(r.Series["GUPT-tight eps=2"][last], "guptICV@maxIters")
		b.ReportMetric(r.Series["PINQ-tight eps=2"][last], "pinqICV@maxIters")
	}
}

// BenchmarkFig6Scalability regenerates Figure 6: wall-clock time of
// non-private vs GUPT-helper vs GUPT-loose k-means as iterations grow.
func BenchmarkFig6Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := len(r.Iterations) - 1
		b.ReportMetric(float64(r.GUPTLoose[last])/float64(r.NonPrivate[last]), "loose/nonprivate")
	}
}

// BenchmarkFig7AccuracyCDF regenerates Figure 7: the fraction of queries
// meeting the accuracy goal under each budget policy.
func BenchmarkFig7AccuracyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MeetsGoal("variable eps"), "metGoal@variable")
		b.ReportMetric(r.MeetsGoal("constant eps=0.3"), "metGoal@eps0.3")
		b.ReportMetric(r.VariableEpsilon, "variableEps")
	}
}

// BenchmarkFig8BudgetLifetime regenerates Figure 8: normalized budget
// lifetime (the paper reports variable ε at ≈2.3× constant ε=1).
func BenchmarkFig8BudgetLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NormalizedLifetime["variable eps"], "lifetime@variable")
	}
}

// BenchmarkFig9BlockSize regenerates Figure 9: normalized RMSE vs block
// size for mean and median queries.
func BenchmarkFig9BlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		mean := r.Series["mean eps=2"]
		med := r.Series["median eps=2"]
		b.ReportMetric(mean[0], "meanRMSE@beta1")
		b.ReportMetric(med[len(med)-1], "medianRMSE@betaMax")
	}
}

// BenchmarkTable1Capabilities regenerates Table 1 (qualitative; the
// executable checks live in the adversarial tests cited in
// internal/experiments/table1.go).
func BenchmarkTable1Capabilities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1()
		if len(rows) != 6 {
			b.Fatalf("Table 1 has %d rows", len(rows))
		}
	}
}

// BenchmarkSandboxOverhead regenerates the §6.1 measurement: isolation
// overhead of subprocess chambers over in-process execution.
func BenchmarkSandboxOverhead(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := experiments.SandboxOverhead(benchConfig(), exe, nil, []string{"GUPT_BENCH_APP=kmeans"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Light.OverheadFrac, "overhead%@light")
		b.ReportMetric(100*r.Heavy.OverheadFrac, "overhead%@heavy")
	}
}

// BenchmarkResamplingVariance is the §4.2/Claim 1 ablation: variance falls
// with γ at constant ε.
func BenchmarkResamplingVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ResamplingVariance(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Variances[0], "var@gamma1")
		b.ReportMetric(r.Variances[len(r.Variances)-1], "var@gammaMax")
	}
}

// BenchmarkBlockSizeOptimizer is the §4.3 validation: the aged-sample
// optimizer's measured error versus the n^0.6 default.
func BenchmarkBlockSizeOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Optimizer(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].ChosenRMSE, "rmse@chosen")
		b.ReportMetric(r.Rows[0].DefaultRMSE, "rmse@default")
	}
}

// BenchmarkTimingAttackDefense is the §6.2 measurement: the runtime gap a
// stalling program leaks, with and without the execution quantum.
func BenchmarkTimingAttackDefense(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TimingAttack(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.GapUndefended.Milliseconds()), "gapMs@undefended")
		b.ReportMetric(float64(r.GapDefended.Milliseconds()), "gapMs@defended")
	}
}

// BenchmarkBudgetAttack is the §6.2 budget side-channel measurement: the
// ε gap a conditional budget burn extracts from the PINQ baseline.
func BenchmarkBudgetAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.BudgetAttack(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.PINQLeak, "pinqLeakEps")
	}
}

// BenchmarkBudgetDistribution is the §5.2/Example 4 ablation: the
// ζ-proportional split equalizes per-query noise.
func BenchmarkBudgetDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.BudgetDistribution(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.NoiseImbalance("equal split"), "imbalance@equal")
		b.ReportMetric(r.NoiseImbalance("proportional split"), "imbalance@proportional")
	}
}

// BenchmarkEmbeddedMean20k is the harness's embedded_mean workload as a
// micro-benchmark: one private mean query over a 20,000×1 census table per
// iteration, bytes and allocations reported (not a paper artifact; the
// regression baseline for the block path's recycled storage).
func BenchmarkEmbeddedMean20k(b *testing.B) {
	benchEmbedded(b, censusRows(1, 20000), Mean{Col: 0}, []Range{{Lo: 0, Hi: 150}})
}

// BenchmarkEmbeddedKMeans20k is served_ml's k-means query on the embedded
// path: 20,000×11 rows, k = 4 over ten features, 20 iterations per block.
func BenchmarkEmbeddedKMeans20k(b *testing.B) {
	rng := mathutil.NewRNG(1)
	rows := make([][]float64, 20000)
	for i := range rows {
		rows[i] = make([]float64, 11)
		for j := range rows[i] {
			rows[i][j] = mathutil.Clamp(float64(i%4)*4-6+rng.NormFloat64(), -10, 10)
		}
	}
	benchEmbedded(b, rows, KMeans{K: 4, FeatureDims: 10, Iters: 20, Seed: 42}, repeat(Range{Lo: -10, Hi: 10}, 40))
}

func benchEmbedded(b *testing.B, rows [][]float64, prog Program, ranges []Range) {
	p := New()
	if err := p.Register("ds", rows, nil, DatasetOptions{TotalBudget: float64(b.N) + 1e9}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := p.Run(benchCtx, Query{
			Dataset:      "ds",
			Program:      prog,
			OutputRanges: ranges,
			Epsilon:      1,
			Seed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
