package analytics

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"gupt/internal/mathutil"
	"gupt/internal/workload"
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

// The one-column programs skip copies the reference formulas make, and
// k-means and logistic regression run flat kernels; the answers must not
// move by a bit, and the block must come back untouched (the kernels read
// the block's rows in place).
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
		km := KMeans{K: 2, FeatureDims: 2, Iters: 5, Seed: 1}
		lr := LogisticRegression{FeatureDims: 2, LabelCol: 2, Iters: 20, LearnRate: 0.1, L2: 0.01, L1: 0.001}
		for _, c := range []struct {
			prog Program
			ref  func() (mathutil.Vec, error)
		}{
			{km, func() (mathutil.Vec, error) { return referenceKMeans(km, block) }},
			{lr, func() (mathutil.Vec, error) { return referenceLogReg(lr, block) }},
		} {
			out, err := c.prog.Run(block)
			if err != nil {
				t.Fatal(err)
			}
			if want, err := c.ref(); err != nil || !sameBits(out, want) {
				t.Errorf("n=%d %s = %v, reference %v (%v)", n, c.prog.Name(), out, want, err)
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

// BenchmarkKMeansBlock is a 385×11 k-means block of unclustered Gaussian
// rows: the slow-converging worst case, which runs most of its 20 iterations.
func BenchmarkKMeansBlock(b *testing.B) {
	benchProgram(b, KMeans{K: 4, FeatureDims: 10, Iters: 20, Seed: 1}, 385, 11)
}

// BenchmarkKMeansBlockClustered is served_ml's k-means block: 385 LifeSci
// rows (four planted clusters), K = 4, at most 20 iterations. It reaches its
// fixed point in a few.
func BenchmarkKMeansBlockClustered(b *testing.B) {
	block := workload.LifeSci(1, 385).Rows()
	prog := KMeans{K: workload.LifeSciClusters, FeatureDims: workload.LifeSciDims, Iters: 20, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansPartition is served_ml's k-means query without the
// platform: one op runs every block of one default-size partition of a
// 20,000-row LifeSci table (52 blocks of 384–385 rows, β = n^0.6), K = 4,
// at most 20 iterations, each block its own copy as a chamber gets it.
// Unlike the one clustered block above, which stops after 2 iterations,
// the partition's blocks take about 4 on average, with a tail to 20. The
// K = 1 sub-benchmark is the same partition with a single cluster.
//
// The other sub-benchmarks replay one sweep of the K = 4 runs over the same
// blocks, from the states the runs reached (recordKMeans): "seed" every
// seeding round, "assign" every assignment after the first iteration, each
// from a copy of its starting bounds, labels, counts and centers, and
// "resum" every re-sum. Each reports ns/block for its sweep alone.
func BenchmarkKMeansPartition(b *testing.B) {
	rows := workload.LifeSci(1, 20000).Rows()
	numBlocks := len(rows) / int(math.Round(math.Pow(float64(len(rows)), 0.6)))
	perm := mathutil.NewRNG(1).Perm(len(rows))
	blocks := make([][]mathutil.Vec, numBlocks)
	for i, r := range perm {
		blocks[i%numBlocks] = append(blocks[i%numBlocks], rows[r].Clone())
	}
	perBlock := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numBlocks), "ns/block")
	}
	for _, k := range []int{workload.LifeSciClusters, 1} {
		prog := KMeans{K: k, FeatureDims: workload.LifeSciDims, Iters: 20, Seed: 7}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, block := range blocks {
					if _, err := prog.Run(block); err != nil {
						b.Fatal(err)
					}
				}
			}
			perBlock(b)
		})
	}

	prog := KMeans{K: workload.LifeSciClusters, FeatureDims: workload.LifeSciDims, Iters: 20, Seed: 7}
	f := prog.FeatureDims
	runs := make([]kmeansRecord, numBlocks)
	for i, block := range blocks {
		runs[i] = recordKMeans(prog, block)
		if _, iters, _ := prog.run(block); iters != len(runs[i].resums) {
			b.Fatalf("block %d: the recording ran %d iterations, KMeans.run %d", i, len(runs[i].resums), iters)
		}
	}
	sc := new(kmeansScratch)
	b.Run("seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, block := range blocks {
				sc.reset(len(block), prog.K, f)
				for c := 0; c < prog.K; c++ {
					sc.seedRound(block, runs[r].centers[c*f:(c+1)*f], c)
				}
			}
		}
		perBlock(b)
	})
	b.Run("assign", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, block := range blocks {
				sc.reset(len(block), prog.K, f)
				for _, st := range runs[r].assigns {
					copy(sc.upper, st.upper)
					copy(sc.lower, st.lower)
					copy(sc.labels, st.labels)
					copy(sc.counts, st.counts)
					copy(sc.changed, st.changed)
					copy(sc.drift, st.drift)
					copy(sc.centers, st.centers)
					sc.assign(block, f)
				}
			}
		}
		perBlock(b)
	})
	b.Run("resum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, block := range blocks {
				sc.reset(len(block), prog.K, f)
				for _, st := range runs[r].resums {
					sc.labels, sc.changed = st.labels, st.changed
					sc.resum(block, f)
				}
			}
		}
		perBlock(b)
	})
}

// kmeansRecord is one k-means run's sweeps: the seeded centers, and the
// scratch each assign and each resum started from.
type kmeansRecord struct {
	centers         []float64
	assigns, resums []kmeansState
}

// kmeansState is the part of a kmeansScratch that assign and resum read.
type kmeansState struct {
	upper, lower, drift, centers []float64
	labels, counts               []int
	changed                      []bool
}

// recordKMeans runs KMeans.run's steps on block and records its sweeps.
func recordKMeans(km KMeans, block []mathutil.Vec) kmeansRecord {
	n, f := len(block), km.FeatureDims
	rng := mathutil.NewRNG(km.Seed)
	sc := new(kmeansScratch)
	sc.reset(n, km.K, f)
	state := func() kmeansState {
		return kmeansState{
			upper: slices.Clone(sc.upper), lower: slices.Clone(sc.lower), drift: slices.Clone(sc.drift),
			centers: slices.Clone(sc.centers), labels: slices.Clone(sc.labels), counts: slices.Clone(sc.counts),
			changed: slices.Clone(sc.changed),
		}
	}
	copy(sc.centers, block[rng.Intn(n)][:f])
	if km.K > 1 {
		for c := 0; c < km.K; c++ {
			sc.seedRound(block, sc.centers[c*f:(c+1)*f], c)
			if c+1 < km.K {
				copy(sc.centers[(c+1)*f:(c+2)*f], block[rng.Categorical(sc.upper)][:f])
			}
		}
		for i := range sc.upper {
			sc.upper[i], sc.lower[i] = sc.bounds(sc.upper[i], sc.lower[i])
		}
	}
	rec := kmeansRecord{centers: slices.Clone(sc.centers)}
	for _, c := range sc.labels {
		sc.counts[c]++
	}
	for c := range sc.changed {
		sc.changed[c] = true
	}
	for iters := 0; iters < km.Iters; iters++ {
		if iters > 0 {
			clear(sc.changed)
			if km.K > 1 {
				rec.assigns = append(rec.assigns, state())
				sc.assign(block, f)
			}
		}
		rec.resums = append(rec.resums, state())
		sc.resum(block, f)
		if !sc.update(rng, block, f) {
			break
		}
	}
	return rec
}

// BenchmarkLogRegBlock is served_ml's logreg block: 385 LifeSci rows, ten
// features and the 0/1 label, 50 gradient passes ("block"). The other
// sub-benchmarks time one sweep of it each over the same rows and passes:
// "exp" the sigmoid's 19,250 exponentials on the arguments the passes feed
// it, through ExpInto and through a math.Exp loop; "dots" the u = w·x + b
// sweep; "sigmoid" sigmoidErrs on the passes' arguments (each pass's copy
// into u included); "grads" the gradient sweep.
func BenchmarkLogRegBlock(b *testing.B) {
	block := workload.LifeSci(1, 385).Rows()
	f, n := workload.LifeSciDims, len(block)
	prog := LogisticRegression{FeatureDims: f, LabelCol: f, Iters: 50, LearnRate: 0.5}
	zs, errs := logRegPasses(prog, block)
	ts := make([]float64, len(zs))
	for i, z := range zs {
		ts[i] = -math.Abs(z)
	}
	c := loadCols(make([]float64, (f+1)*n), block, f)
	w := make([]float64, f+1)
	for j := range w {
		w[j] = 0.1 * float64(j+1)
	}
	u, e, grad := make([]float64, n), make([]float64, len(ts)), make([]float64, (f+4)/4*4)
	y := make([]float64, n)
	for i, row := range block {
		y[i] = label(row[f])
	}
	b.Run("block", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := prog.Run(block); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exp", func(b *testing.B) {
		b.Run("ExpInto", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for pass := 0; pass < prog.Iters; pass++ {
					mathutil.ExpInto(e[pass*n:(pass+1)*n], ts[pass*n:(pass+1)*n])
				}
			}
		})
		b.Run("math.Exp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j, t := range ts {
					e[j] = math.Exp(t)
				}
			}
		})
	})
	b.Run("dots", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pass := 0; pass < prog.Iters; pass++ {
				c.dots(u, w)
			}
		}
	})
	b.Run("sigmoid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pass := 0; pass < prog.Iters; pass++ {
				copy(u, zs[pass*n:(pass+1)*n])
				sigmoidErrs(u, e, y)
			}
		}
	})
	b.Run("grads", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for pass := 0; pass < prog.Iters; pass++ {
				c.grads(grad, errs[pass*n:(pass+1)*n])
			}
		}
	})
}

// logRegPasses replays l's gradient passes over block one row at a time and
// returns each row's sigmoid argument and error term, pass after pass.
func logRegPasses(l LogisticRegression, block []mathutil.Vec) (zs, errs []float64) {
	w := make(mathutil.Vec, l.FeatureDims)
	grad := make(mathutil.Vec, l.FeatureDims)
	var b float64
	n := float64(len(block))
	for iter := 0; iter < l.Iters; iter++ {
		clear(grad)
		var gradB float64
		for _, row := range block {
			x := row[:l.FeatureDims]
			z := w.Dot(x) + b
			e := Sigmoid(z) - label(row[l.LabelCol])
			zs, errs = append(zs, z), append(errs, e)
			for j := range grad {
				grad[j] += e * x[j]
			}
			gradB += e
		}
		for j := range w {
			w[j] -= l.LearnRate * (grad[j]/n + l.L2*w[j])
		}
		b -= l.LearnRate * gradB / n
	}
	return zs, errs
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
