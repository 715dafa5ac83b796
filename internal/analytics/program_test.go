package analytics

import (
	"errors"
	"math"
	"testing"

	"gupt/internal/mathutil"
)

func rowsOf(xs ...float64) []mathutil.Vec {
	out := make([]mathutil.Vec, len(xs))
	for i, x := range xs {
		out[i] = mathutil.Vec{x}
	}
	return out
}

func TestMeanProgram(t *testing.T) {
	p := Mean{Col: 0}
	out, err := p.Run(rowsOf(1, 2, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != p.OutputDims() || out[0] != 2.5 {
		t.Errorf("Mean.Run = %v", out)
	}
	if _, err := p.Run(nil); !errors.Is(err, ErrEmptyBlock) {
		t.Errorf("empty block err = %v", err)
	}
	if _, err := (Mean{Col: 5}).Run(rowsOf(1)); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestMedianProgram(t *testing.T) {
	out, err := Median{Col: 0}.Run(rowsOf(9, 1, 5))
	if err != nil || out[0] != 5 {
		t.Errorf("Median.Run = %v, %v", out, err)
	}
}

func TestVarianceProgram(t *testing.T) {
	out, err := Variance{Col: 0}.Run(rowsOf(2, 4, 4, 4, 5, 5, 7, 9))
	if err != nil || math.Abs(out[0]-4) > 1e-12 {
		t.Errorf("Variance.Run = %v, %v", out, err)
	}
}

func TestPercentileProgram(t *testing.T) {
	out, err := Percentile{Col: 0, P: 0.5}.Run(rowsOf(10, 20, 30))
	if err != nil || out[0] != 20 {
		t.Errorf("Percentile.Run = %v, %v", out, err)
	}
}

func TestFuncAdapter(t *testing.T) {
	f := Func{ProgName: "const", Dims: 2, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		return mathutil.Vec{1, 2}, nil
	}}
	if f.Name() != "const" || f.OutputDims() != 2 {
		t.Error("Func metadata wrong")
	}
	out, err := f.Run(nil)
	if err != nil || !out.Equal(mathutil.Vec{1, 2}, 0) {
		t.Errorf("Func.Run = %v, %v", out, err)
	}
}

func TestProgramsUseOnlyGivenColumn(t *testing.T) {
	// Two-column rows; programs on col 1 must ignore col 0.
	block := []mathutil.Vec{{100, 1}, {200, 2}, {300, 3}}
	out, err := Mean{Col: 1}.Run(block)
	if err != nil || out[0] != 2 {
		t.Errorf("Mean col=1 = %v, %v", out, err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s <= 0.999 || s > 1 {
		t.Errorf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s >= 0.001 || s < 0 {
		t.Errorf("Sigmoid(-100) = %v", s)
	}
	// Stability at extremes: no NaN.
	for _, z := range []float64{-1000, 1000} {
		if math.IsNaN(Sigmoid(z)) {
			t.Errorf("Sigmoid(%v) is NaN", z)
		}
	}
}

func TestLogisticRegressionLearnsSeparableData(t *testing.T) {
	// y = 1 iff x0 + x1 > 0, clearly separable.
	rng := mathutil.NewRNG(1)
	var block []mathutil.Vec
	for i := 0; i < 400; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		y := 0.0
		if x0+x1 > 0 {
			y = 1
		}
		block = append(block, mathutil.Vec{x0, x1, y})
	}
	lr := LogisticRegression{FeatureDims: 2, LabelCol: 2, Iters: 300, LearnRate: 0.5}
	params, err := lr.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(params) != lr.OutputDims() {
		t.Fatalf("params len %d, want %d", len(params), lr.OutputDims())
	}
	if acc := ClassificationAccuracy(params, block, 2, 2); acc < 0.95 {
		t.Errorf("training accuracy %v, want >= 0.95", acc)
	}
}

func TestLogisticRegressionL1DrivesIrrelevantWeightToZero(t *testing.T) {
	rng := mathutil.NewRNG(2)
	var block []mathutil.Vec
	for i := 0; i < 500; i++ {
		x0 := rng.NormFloat64()
		noise := rng.NormFloat64() // irrelevant feature
		y := 0.0
		if x0 > 0 {
			y = 1
		}
		block = append(block, mathutil.Vec{x0, noise, y})
	}
	lr := LogisticRegression{FeatureDims: 2, LabelCol: 2, Iters: 400, LearnRate: 0.5, L1: 0.02}
	params, err := lr.Run(block)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(params[1]) > 0.05 {
		t.Errorf("irrelevant weight %v not shrunk by L1", params[1])
	}
	if math.Abs(params[0]) < 0.5 {
		t.Errorf("relevant weight %v collapsed", params[0])
	}
}

func TestLogisticRegressionValidation(t *testing.T) {
	block := []mathutil.Vec{{1, 0}}
	cases := []LogisticRegression{
		{FeatureDims: 0, LabelCol: 1, Iters: 1, LearnRate: 0.1},
		{FeatureDims: 1, LabelCol: 1, Iters: 0, LearnRate: 0.1},
		{FeatureDims: 1, LabelCol: 1, Iters: 1, LearnRate: 0},
		{FeatureDims: 1, LabelCol: 9, Iters: 1, LearnRate: 0.1},
		{FeatureDims: 5, LabelCol: 1, Iters: 1, LearnRate: 0.1},
	}
	for i, c := range cases {
		if _, err := c.Run(block); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
	if _, err := (LogisticRegression{FeatureDims: 1, LabelCol: 1, Iters: 1, LearnRate: 0.1}).Run(nil); !errors.Is(err, ErrEmptyBlock) {
		t.Error("empty block accepted")
	}
}

// The one-column programs skip copies the reference formulas make; the
// answers must not move by a bit, and the block must come back untouched
// (k-means now reads the block's rows in place too).
func TestProgramsMatchReferenceBitsAndLeaveBlockAlone(t *testing.T) {
	rng := mathutil.NewRNG(3)
	for _, n := range []int{1, 2, 384, 385} {
		block := make([]mathutil.Vec, n)
		for i := range block {
			block[i] = mathutil.Vec{rng.NormFloat64(), 40 + 10*rng.NormFloat64(), float64(i % 2)}
		}
		before := mathutil.CloneRows(block)
		col := column(block, 1)
		for _, c := range []struct {
			prog Program
			want float64
		}{
			{Mean{Col: 1}, mathutil.Mean(col)},
			{Median{Col: 1}, mathutil.Median(col)},
			{Percentile{Col: 1, P: 0.25}, mathutil.Quantile(col, 0.25)},
			{Percentile{Col: 1, P: 0.9}, mathutil.Quantile(col, 0.9)},
		} {
			out, err := c.prog.Run(block)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(out[0]) != math.Float64bits(c.want) {
				t.Errorf("n=%d %s = %v, reference %v", n, c.prog.Name(), out[0], c.want)
			}
		}
		if n >= 2 {
			if _, err := (KMeans{K: 2, FeatureDims: 2, Iters: 5, Seed: 1}).Run(block); err != nil {
				t.Fatal(err)
			}
		}
		for i := range block {
			if !block[i].Equal(before[i], 0) || len(block[i]) != 3 {
				t.Fatalf("n=%d: row %d = %v after the programs ran, was %v", n, i, block[i], before[i])
			}
		}
	}
}

func BenchmarkMeanBlock(b *testing.B) { benchProgram(b, Mean{Col: 0}, 385, 1) }

func BenchmarkKMeansBlock(b *testing.B) {
	benchProgram(b, KMeans{K: 4, FeatureDims: 10, Iters: 20, Seed: 1}, 385, 11)
}

func benchProgram(b *testing.B, prog Program, n, cols int) {
	rng := mathutil.NewRNG(1)
	block := make([]mathutil.Vec, n)
	for i := range block {
		block[i] = make(mathutil.Vec, cols)
		for j := range block[i] {
			block[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(block); err != nil {
			b.Fatal(err)
		}
	}
}
