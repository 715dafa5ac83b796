package gupt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
)

func censusRows(seed int64, n int) [][]float64 {
	rng := mathutil.NewRNG(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}
	}
	return rows
}

func newCensusPlatform(t *testing.T, budget float64, agedFrac float64) *Platform {
	t.Helper()
	p := New()
	err := p.Register("census", censusRows(1, 5000), []string{"age"}, DatasetOptions{
		TotalBudget:  budget,
		Ranges:       []Range{{Lo: 0, Hi: 150}},
		AgedFraction: agedFrac,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformQuickstart(t *testing.T) {
	p := newCensusPlatform(t, 10, 0)
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Epsilon:      2,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-40) > 5 {
		t.Errorf("mean = %v, want ~40", res.Output[0])
	}
	rem, err := p.RemainingBudget("census")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rem-8) > 1e-9 {
		t.Errorf("remaining = %v, want 8", rem)
	}
}

func TestPlatformBudgetLifecycle(t *testing.T) {
	p := newCensusPlatform(t, 1, 0)
	q := Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Epsilon:      0.7,
	}
	if _, err := p.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background(), q); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
	rem, _ := p.RemainingBudget("census")
	if math.Abs(rem-0.3) > 1e-9 {
		t.Errorf("refused query consumed budget: %v", rem)
	}
}

func TestPlatformAccuracyGoal(t *testing.T) {
	p := newCensusPlatform(t, 100, 0.1)
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Accuracy:     &AccuracyGoal{Rho: 0.9, Confidence: 0.9},
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EpsilonSpent <= 0 {
		t.Fatalf("EpsilonSpent = %v", res.EpsilonSpent)
	}
	if math.Abs(res.Output[0]-40)/40 > 0.2 {
		t.Errorf("accuracy query output %v too far from 40", res.Output[0])
	}
}

func TestPlatformEstimateEpsilonMatchesCharge(t *testing.T) {
	p := newCensusPlatform(t, 100, 0.1)
	goal := AccuracyGoal{Rho: 0.9, Confidence: 0.9}
	preview, err := p.EstimateEpsilon("census", Mean{Col: 0}, 0, []Range{{Lo: 0, Hi: 150}}, goal)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Accuracy:     &goal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(preview-res.EpsilonSpent) > 1e-9 {
		t.Errorf("preview %v != charged %v", preview, res.EpsilonSpent)
	}
	// Preview itself must not charge.
	rem, _ := p.RemainingBudget("census")
	if math.Abs((100-rem)-res.EpsilonSpent) > 1e-9 {
		t.Errorf("EstimateEpsilon charged the ledger")
	}
}

func TestPlatformLooseAndHelperModes(t *testing.T) {
	p := newCensusPlatform(t, 100, 0)
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		Mode:         Loose,
		OutputRanges: []Range{{Lo: 0, Hi: 300}},
		Epsilon:      4,
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-40) > 15 {
		t.Errorf("loose mean = %v", res.Output[0])
	}

	res, err = p.Run(context.Background(), Query{
		Dataset: "census",
		Program: Mean{Col: 0},
		Mode:    Helper,
		Translate: func(in []Range) []Range {
			return []Range{{Lo: in[0].Lo - 10, Hi: in[0].Hi + 10}}
		},
		Epsilon: 4,
		Seed:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-40) > 15 {
		t.Errorf("helper mean = %v (input ranges came from the dataset)", res.Output[0])
	}
}

// Helper ranges under user-level privacy are refused before the charge, at
// zero ε: the helper's percentile estimate ranks single rows, so a user with
// k rows would spend k times the ε charged.
func TestPlatformUserLevelHelperRefused(t *testing.T) {
	p := newCensusPlatform(t, 100, 0)
	_, err := p.Run(context.Background(), Query{
		Dataset: "census",
		Program: Mean{Col: 0},
		Mode:    Helper,
		Translate: func(in []Range) []Range {
			return []Range{{Lo: in[0].Lo - 10, Hi: in[0].Hi + 10}}
		},
		Epsilon:   4,
		BlockSize: 200,
		Seed:      6,
		UserLevel: true,
	})
	if err == nil || !strings.Contains(err.Error(), "user-level") {
		t.Fatalf("helper ranges at user level: err = %v, want the refusal", err)
	}
	if rem, err := p.RemainingBudget("census"); err != nil || rem != 100 {
		t.Errorf("refused query: remaining %v, err %v; want 100", rem, err)
	}
}

func TestPlatformAutoBlockSize(t *testing.T) {
	p := newCensusPlatform(t, 100, 0.1)
	res, err := p.Run(context.Background(), Query{
		Dataset:       "census",
		Program:       Mean{Col: 0},
		OutputRanges:  []Range{{Lo: 0, Hi: 150}},
		Epsilon:       2,
		AutoBlockSize: true,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockSize >= 100 {
		t.Errorf("auto block size %d not tuned down for a mean query", res.BlockSize)
	}
}

func TestPlatformCustomProgram(t *testing.T) {
	p := newCensusPlatform(t, 100, 0)
	// A user-supplied closure program: fraction of people over 60.
	over60 := ProgramFunc{ProgName: "over60", Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		count := 0
		for _, r := range block {
			if r[0] > 60 {
				count++
			}
		}
		return mathutil.Vec{float64(count) / float64(len(block))}, nil
	}}
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      over60,
		OutputRanges: []Range{{Lo: 0, Hi: 1}},
		Epsilon:      3,
		Seed:         8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// P(N(40,10) > 60) ≈ 0.023.
	if res.Output[0] < 0 || res.Output[0] > 0.15 {
		t.Errorf("over-60 fraction = %v, want small", res.Output[0])
	}
}

func TestPlatformValidationErrors(t *testing.T) {
	p := newCensusPlatform(t, 10, 0)
	ctx := context.Background()
	cases := []struct {
		name string
		q    Query
	}{
		{"unknown dataset", Query{Dataset: "x", Program: Mean{}, OutputRanges: []Range{{Lo: 0, Hi: 1}}, Epsilon: 1}},
		{"nil program", Query{Dataset: "census", OutputRanges: []Range{{Lo: 0, Hi: 1}}, Epsilon: 1}},
		{"no budget or accuracy", Query{Dataset: "census", Program: Mean{}, OutputRanges: []Range{{Lo: 0, Hi: 1}}}},
		{"both budget and accuracy", Query{Dataset: "census", Program: Mean{}, OutputRanges: []Range{{Lo: 0, Hi: 1}}, Epsilon: 1, Accuracy: &AccuracyGoal{Rho: 0.9, Confidence: 0.9}}},
		{"accuracy without ranges", Query{Dataset: "census", Program: Mean{}, Accuracy: &AccuracyGoal{Rho: 0.9, Confidence: 0.9}}},
		{"accuracy without aged data", Query{Dataset: "census", Program: Mean{}, OutputRanges: []Range{{Lo: 0, Hi: 1}}, Accuracy: &AccuracyGoal{Rho: 0.9, Confidence: 0.9}}},
		{"auto block size without aged data", Query{Dataset: "census", Program: Mean{}, OutputRanges: []Range{{Lo: 0, Hi: 1}}, Epsilon: 1, AutoBlockSize: true}},
	}
	for _, c := range cases {
		if _, err := p.Run(ctx, c.q); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPlatformRegisterValidation(t *testing.T) {
	p := New()
	if err := p.Register("d", [][]float64{{1}, {2, 3}}, nil, DatasetOptions{TotalBudget: 1}); err == nil {
		t.Error("ragged rows accepted")
	}
	if err := p.Register("d", [][]float64{{1}}, nil, DatasetOptions{}); err == nil {
		t.Error("zero budget accepted")
	}
	if err := p.Register("d", [][]float64{{1}}, nil, DatasetOptions{TotalBudget: 1, AgedRows: [][]float64{{1, 2}}}); err == nil {
		t.Error("ragged aged rows accepted")
	}
}

func TestPlatformExplicitAgedRows(t *testing.T) {
	p := New()
	err := p.Register("d", censusRows(1, 1000), []string{"age"}, DatasetOptions{
		TotalBudget: 100,
		AgedRows:    censusRows(2, 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	eps, err := p.EstimateEpsilon("d", Mean{Col: 0}, 0, []Range{{Lo: 0, Hi: 150}},
		AccuracyGoal{Rho: 0.9, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if eps <= 0 {
		t.Errorf("EstimateEpsilon = %v", eps)
	}
}

func TestPlatformUnregisterAndList(t *testing.T) {
	p := newCensusPlatform(t, 1, 0)
	if names := p.Datasets(); len(names) != 1 || names[0] != "census" {
		t.Errorf("Datasets = %v", names)
	}
	if err := p.Unregister("census"); err != nil {
		t.Fatal(err)
	}
	if len(p.Datasets()) != 0 {
		t.Error("dataset still listed after Unregister")
	}
}

func TestPlatformRegisterCSV(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/ages.csv"
	if err := writeTestCSV(path); err != nil {
		t.Fatal(err)
	}
	p := New()
	if err := p.RegisterCSV("csvset", path, true, DatasetOptions{TotalBudget: 10}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background(), Query{
		Dataset:      "csvset",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 100}},
		Epsilon:      5,
		BlockSize:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] < 0 || res.Output[0] > 100 {
		t.Errorf("csv mean = %v", res.Output[0])
	}
}

func TestSynthesizeAgedSample(t *testing.T) {
	p := newCensusPlatform(t, 10, 0) // no natural aged data
	// Accuracy goals are unavailable before synthesis.
	_, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Accuracy:     &AccuracyGoal{Rho: 0.9, Confidence: 0.9},
	})
	if err == nil {
		t.Fatal("accuracy goal worked without aged data")
	}

	if err := p.SynthesizeAgedSample("census", 0.5, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	rem, _ := p.RemainingBudget("census")
	if math.Abs(rem-9.5) > 1e-9 {
		t.Errorf("synthesis charge wrong: remaining %v", rem)
	}
	// Now accuracy goals work, driven by the synthetic sample.
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      Mean{Col: 0},
		OutputRanges: []Range{{Lo: 0, Hi: 150}},
		Accuracy:     &AccuracyGoal{Rho: 0.9, Confidence: 0.9},
		BlockSize:    16,
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-40)/40 > 0.2 {
		t.Errorf("accuracy query after synthesis = %v", res.Output[0])
	}
}

func TestSynthesizeAgedSampleValidation(t *testing.T) {
	p := New()
	if err := p.Register("noranges", censusRows(1, 100), nil, DatasetOptions{TotalBudget: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.SynthesizeAgedSample("noranges", 0.5, 0, 0, 1); err == nil {
		t.Error("synthesis without registered ranges accepted")
	}
	if err := p.SynthesizeAgedSample("ghost", 0.5, 0, 0, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	// Charge is atomic: over-budget synthesis consumes nothing.
	p2 := newCensusPlatform(t, 0.1, 0)
	if err := p2.SynthesizeAgedSample("census", 5, 0, 0, 1); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("err = %v", err)
	}
	rem, _ := p2.RemainingBudget("census")
	if rem != 0.1 {
		t.Errorf("failed synthesis consumed budget: %v", rem)
	}
}

// A DP histogram via the black-box route: every bucket fraction is an
// output dimension bounded in [0,1].
func TestPlatformHistogramQuery(t *testing.T) {
	p := newCensusPlatform(t, 100, 0)
	h := Histogram{Col: 0, Lo: 0, Hi: 150, Bins: 5}
	ranges := make([]Range, h.Bins)
	for i := range ranges {
		ranges[i] = Range{Lo: 0, Hi: 1}
	}
	res, err := p.Run(context.Background(), Query{
		Dataset:      "census",
		Program:      h,
		OutputRanges: ranges,
		Epsilon:      20,
		Seed:         6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range res.Output {
		sum += v
	}
	// The noisy fractions should still roughly sum to 1.
	if math.Abs(sum-1) > 0.3 {
		t.Errorf("histogram mass = %v", sum)
	}
	// Ages are N(40,10): bucket 1 ([30,60)) dominates.
	if res.Output[1] < res.Output[0] || res.Output[1] < res.Output[3] {
		t.Errorf("histogram shape wrong: %v", res.Output)
	}
}

// Naive Bayes through the platform: the averaged noisy model still
// classifies clearly separated classes.
func TestPlatformNaiveBayesQuery(t *testing.T) {
	rng := mathutil.NewRNG(8)
	rows := make([][]float64, 4000)
	for i := range rows {
		y := float64(i % 2)
		center := -2.0
		if y == 1 {
			center = 2
		}
		rows[i] = []float64{center + rng.NormFloat64(), y}
	}
	p := New()
	if err := p.Register("classes", rows, nil, DatasetOptions{TotalBudget: 100}); err != nil {
		t.Fatal(err)
	}
	nb := NaiveBayes{FeatureDims: 1, LabelCol: 1}
	ranges := []Range{
		{Lo: 0, Hi: 1},  // prior
		{Lo: -5, Hi: 5}, // class-1 mean
		{Lo: 0, Hi: 5},  // class-1 variance
		{Lo: -5, Hi: 5}, // class-0 mean
		{Lo: 0, Hi: 5},  // class-0 variance
	}
	res, err := p.Run(context.Background(), Query{
		Dataset:      "classes",
		Program:      nb,
		OutputRanges: ranges,
		Epsilon:      20,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	vecRows := make([]mathutil.Vec, len(rows))
	for i, r := range rows {
		vecRows[i] = mathutil.Vec(r)
	}
	if acc := analytics.NaiveBayesAccuracy(res.Output, vecRows, 1, 1); acc < 0.9 {
		t.Errorf("private naive bayes accuracy = %v", acc)
	}
}

// The platform is safe under concurrent analysts: parallel queries all
// succeed or are refused cleanly, and the ledger stays exact.
func TestPlatformConcurrentQueries(t *testing.T) {
	p := newCensusPlatform(t, 100, 0)
	const workers = 16
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			_, err := p.Run(context.Background(), Query{
				Dataset:      "census",
				Program:      Mean{Col: 0},
				OutputRanges: []Range{{Lo: 0, Hi: 150}},
				Epsilon:      0.5,
				Seed:         int64(i),
			})
			errs <- err
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	rem, _ := p.RemainingBudget("census")
	if math.Abs(rem-92) > 1e-9 {
		t.Errorf("remaining = %v, want 92", rem)
	}
}

func TestDistributeBudgetReExport(t *testing.T) {
	out, err := DistributeBudget(1, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.25) > 1e-12 || math.Abs(out[1]-0.75) > 1e-12 {
		t.Errorf("DistributeBudget = %v", out)
	}
}

func writeTestCSV(path string) error {
	var sb strings.Builder
	sb.WriteString("age\n")
	for _, r := range censusRows(9, 40) {
		fmt.Fprintf(&sb, "%g\n", r[0])
	}
	return os.WriteFile(path, []byte(sb.String()), 0o600)
}
