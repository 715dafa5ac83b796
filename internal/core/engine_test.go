package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// ageRows builds a 1-column dataset of n synthetic "ages" around mean 40.
func ageRows(seed int64, n int) []mathutil.Vec {
	rng := mathutil.NewRNG(seed)
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = mathutil.Vec{mathutil.Clamp(40+10*rng.NormFloat64(), 0, 150)}
	}
	return rows
}

func trueMean(rows []mathutil.Vec) float64 {
	col := make([]float64, len(rows))
	for i, r := range rows {
		col[i] = r[0]
	}
	return mathutil.Mean(col)
}

func tightSpec(ranges ...dp.Range) RangeSpec {
	return RangeSpec{Mode: ModeTight, Output: ranges}
}

func TestRunTightMeanAccurate(t *testing.T) {
	rows := ageRows(1, 10000)
	res, err := Run(context.Background(), analytics.Mean{Col: 0},
		rows, tightSpec(dp.Range{Lo: 0, Hi: 150}), Options{Epsilon: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := trueMean(rows)
	if math.Abs(res.Output[0]-want) > 2 {
		t.Errorf("private mean = %v, true %v", res.Output[0], want)
	}
	if res.Mode != ModeTight || res.EpsilonSpent != 5 {
		t.Errorf("metadata wrong: %+v", res)
	}
	if res.BlockSize != DefaultBlockSize(10000) || res.Gamma != 1 {
		t.Errorf("defaults wrong: beta=%d gamma=%d", res.BlockSize, res.Gamma)
	}
	if res.FailedBlocks != 0 {
		t.Errorf("FailedBlocks = %d", res.FailedBlocks)
	}
}

func TestRunDeterministicInSeed(t *testing.T) {
	rows := ageRows(2, 2000)
	opts := Options{Epsilon: 1, Seed: 11}
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	a, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Output[0] != b.Output[0] {
		t.Errorf("same seed, different outputs: %v vs %v", a.Output[0], b.Output[0])
	}
	opts.Seed = 12
	c, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Output[0] == c.Output[0] {
		t.Error("different seeds produced identical noise (suspicious)")
	}
}

func TestRunNoiseScalesWithEpsilon(t *testing.T) {
	rows := ageRows(3, 5000)
	want := trueMean(rows)
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	spread := func(eps float64) float64 {
		var errs []float64
		for seed := int64(0); seed < 40; seed++ {
			res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
				Options{Epsilon: eps, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, res.Output[0]-want)
		}
		return mathutil.StdDev(errs)
	}
	loose, tight := spread(0.05), spread(5)
	if loose <= tight {
		t.Errorf("eps=0.05 spread %v not larger than eps=5 spread %v", loose, tight)
	}
}

func TestRunLooseMode(t *testing.T) {
	rows := ageRows(4, 10000)
	spec := RangeSpec{Mode: ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 300}}}
	res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
		Options{Epsilon: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := trueMean(rows)
	if math.Abs(res.Output[0]-want) > 10 {
		t.Errorf("loose-mode mean = %v, true %v", res.Output[0], want)
	}
	// The effective range must be a tightening of the loose range.
	er := res.EffectiveRanges[0]
	if er.Lo < 0 || er.Hi > 300 {
		t.Errorf("effective range %+v escapes the loose range", er)
	}
	if er.Width() >= 300 {
		t.Errorf("effective range %+v was not tightened", er)
	}
}

func TestRunHelperMode(t *testing.T) {
	rows := ageRows(5, 10000)
	spec := RangeSpec{
		Mode:  ModeHelper,
		Input: []dp.Range{{Lo: 0, Hi: 150}},
		Translate: func(in []dp.Range) []dp.Range {
			// The mean of values in [lo,hi] lies in [lo,hi]; widen a little
			// since the IQR understates the full range.
			r := in[0]
			return []dp.Range{{Lo: r.Lo - 10, Hi: r.Hi + 10}}
		},
	}
	res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
		Options{Epsilon: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	want := trueMean(rows)
	if math.Abs(res.Output[0]-want) > 10 {
		t.Errorf("helper-mode mean = %v, true %v", res.Output[0], want)
	}
}

// §4.1: a wider inter-percentile pair is usable when there are more
// samples; verify the configurable pair flows through loose mode and that
// invalid pairs are rejected.
func TestRunPercentilePair(t *testing.T) {
	rows := ageRows(14, 10000)
	spec := RangeSpec{
		Mode:          ModeLoose,
		Output:        []dp.Range{{Lo: 0, Hi: 300}},
		PercentileLow: 0.1, PercentileHigh: 0.9,
	}
	res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
		Options{Epsilon: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-trueMean(rows)) > 10 {
		t.Errorf("wide-pair loose mean = %v", res.Output[0])
	}
	bad := spec
	bad.PercentileLow, bad.PercentileHigh = 0.9, 0.1
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, bad, Options{Epsilon: 1}); !errors.Is(err, ErrRangeSpec) {
		t.Errorf("inverted pair err = %v", err)
	}
	bad.PercentileLow, bad.PercentileHigh = 0, 0.5
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, bad, Options{Epsilon: 1}); !errors.Is(err, ErrRangeSpec) {
		t.Errorf("zero-low pair err = %v", err)
	}
}

func TestRunHelperRequiresInputRanges(t *testing.T) {
	rows := ageRows(5, 100)
	spec := RangeSpec{
		Mode:      ModeHelper,
		Translate: func(in []dp.Range) []dp.Range { return in },
	}
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, Options{Epsilon: 1}); !errors.Is(err, ErrRangeSpec) {
		t.Errorf("missing input ranges, err = %v", err)
	}
}

func TestRunHelperBadTranslate(t *testing.T) {
	rows := ageRows(5, 100)
	spec := RangeSpec{
		Mode:      ModeHelper,
		Input:     []dp.Range{{Lo: 0, Hi: 150}},
		Translate: func(in []dp.Range) []dp.Range { return nil }, // wrong arity
	}
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, Options{Epsilon: 1}); !errors.Is(err, ErrRangeSpec) {
		t.Errorf("bad translate, err = %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	rows := ageRows(1, 100)
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	if _, err := Run(context.Background(), nil, rows, spec, Options{Epsilon: 1}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, nil, spec, Options{Epsilon: 1}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, Options{Epsilon: 0}); !errors.Is(err, dp.ErrInvalidEpsilon) {
		t.Error("zero epsilon accepted")
	}
	// Wrong number of output ranges.
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, RangeSpec{Mode: ModeTight}, Options{Epsilon: 1}); !errors.Is(err, ErrRangeSpec) {
		t.Error("missing output ranges accepted")
	}
	// Unknown mode.
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, RangeSpec{Mode: RangeMode(99)}, Options{Epsilon: 1}); !errors.Is(err, ErrRangeSpec) {
		t.Error("unknown mode accepted")
	}
	// Program with zero output dims.
	zero := analytics.Func{ProgName: "z", Dims: 0, F: func([]mathutil.Vec) (mathutil.Vec, error) { return nil, nil }}
	if _, err := Run(context.Background(), zero, rows, RangeSpec{Mode: ModeTight}, Options{Epsilon: 1}); err == nil {
		t.Error("zero-output-dim program accepted")
	}
}

func TestRunMisbehavingProgramSubstituted(t *testing.T) {
	rows := ageRows(6, 1000)
	spec := tightSpec(dp.Range{Lo: 0, Hi: 100})

	// Program that always fails: every block substitutes the range
	// midpoint, so the noisy output concentrates around 50.
	failing := analytics.Func{ProgName: "fail", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		return nil, errors.New("nope")
	}}
	res, err := Run(context.Background(), failing, rows, spec, Options{Epsilon: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedBlocks != res.NumBlocks {
		t.Errorf("FailedBlocks = %d, want all %d", res.FailedBlocks, res.NumBlocks)
	}
	if math.Abs(res.Output[0]-50) > 5 {
		t.Errorf("substituted output = %v, want ~50", res.Output[0])
	}

	// Program returning the wrong arity is also substituted.
	wrongDims := analytics.Func{ProgName: "wrong", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		return mathutil.Vec{1, 2, 3}, nil
	}}
	res, err = Run(context.Background(), wrongDims, rows, spec, Options{Epsilon: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedBlocks != res.NumBlocks {
		t.Errorf("wrong-arity FailedBlocks = %d, want all", res.FailedBlocks)
	}

	// A panicking program must not bring down the engine.
	bomb := analytics.Func{ProgName: "bomb", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		panic("boom")
	}}
	if _, err := Run(context.Background(), bomb, rows, spec, Options{Epsilon: 1, Seed: 3}); err != nil {
		t.Errorf("panicking program crashed the run: %v", err)
	}
}

// Output clamping: a program returning values far outside the declared
// range cannot drag the released average beyond it.
func TestRunClampsOutliers(t *testing.T) {
	rows := ageRows(7, 2000)
	liar := analytics.Func{ProgName: "liar", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		return mathutil.Vec{1e12}, nil
	}}
	res, err := Run(context.Background(), liar, rows, tightSpec(dp.Range{Lo: 0, Hi: 100}),
		Options{Epsilon: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] > 110 {
		t.Errorf("clamped average leaked outlier: %v", res.Output[0])
	}
}

func TestRunContextCancellation(t *testing.T) {
	rows := ageRows(8, 5000)
	slow := analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		time.Sleep(time.Second)
		return mathutil.Vec{1}, nil
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, slow, rows, tightSpec(dp.Range{Lo: 0, Hi: 1}), Options{Epsilon: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
}

func TestRunQuantumKillsSlowBlocks(t *testing.T) {
	rows := ageRows(9, 400)
	slow := analytics.Func{ProgName: "slow", Dims: 1, F: func([]mathutil.Vec) (mathutil.Vec, error) {
		time.Sleep(5 * time.Second)
		return mathutil.Vec{1}, nil
	}}
	start := time.Now()
	res, err := Run(context.Background(), slow, rows,
		tightSpec(dp.Range{Lo: 0, Hi: 100}),
		Options{Epsilon: 10, Seed: 1, Quantum: 50 * time.Millisecond, BlockSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedBlocks != res.NumBlocks {
		t.Errorf("FailedBlocks = %d, want all %d", res.FailedBlocks, res.NumBlocks)
	}
	if math.Abs(res.Output[0]-50) > 10 {
		t.Errorf("killed blocks should release midpoint: %v", res.Output[0])
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("quantum kill took %v", time.Since(start))
	}
}

// Multi-dimensional outputs: each dimension is clamped and noised with its
// own range.
func TestRunMultiDimensional(t *testing.T) {
	rng := mathutil.NewRNG(10)
	rows := make([]mathutil.Vec, 5000)
	for i := range rows {
		rows[i] = mathutil.Vec{10 + rng.NormFloat64(), 1000 + 100*rng.NormFloat64()}
	}
	prog := analytics.Func{ProgName: "means2", Dims: 2, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
		var a, b float64
		for _, r := range block {
			a += r[0]
			b += r[1]
		}
		n := float64(len(block))
		return mathutil.Vec{a / n, b / n}, nil
	}}
	spec := tightSpec(dp.Range{Lo: 0, Hi: 20}, dp.Range{Lo: 0, Hi: 2000})
	res, err := Run(context.Background(), prog, rows, spec, Options{Epsilon: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Output[0]-10) > 2 {
		t.Errorf("dim 0 = %v, want ~10", res.Output[0])
	}
	if math.Abs(res.Output[1]-1000) > 100 {
		t.Errorf("dim 1 = %v, want ~1000", res.Output[1])
	}
}

// Resampling (§4.2): for a nonlinear statistic the variance of the released
// output drops as gamma grows, at the same privacy level (Claim 1).
func TestRunResamplingReducesVariance(t *testing.T) {
	rng := mathutil.NewRNG(11)
	rows := make([]mathutil.Vec, 1200)
	for i := range rows {
		// Skewed data so block medians genuinely vary with the partition.
		rows[i] = mathutil.Vec{mathutil.Clamp(rng.LogNormal(3, 0.8), 0, 150)}
	}
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	spread := func(gamma int) float64 {
		var outs []float64
		for seed := int64(0); seed < 50; seed++ {
			res, err := Run(context.Background(), analytics.Median{Col: 0}, rows, spec,
				Options{Epsilon: 1000, Seed: seed, BlockSize: 60, Gamma: gamma})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, res.Output[0])
		}
		return mathutil.Variance(outs)
	}
	v1, v6 := spread(1), spread(6)
	if v6 >= v1 {
		t.Errorf("gamma=6 variance %v not below gamma=1 variance %v", v6, v1)
	}
}

// Utility guarantee (paper Appendix A, Theorem 2): for an approximately
// normal statistic on i.i.d. data, the private output converges to the true
// statistic as n grows. Measured as mean absolute error over several seeds
// at increasing n; each quadrupling of n should at least halve the error.
func TestRunUtilityConvergence(t *testing.T) {
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	meanErr := func(n int) float64 {
		rows := ageRows(int64(n), n)
		truth := trueMean(rows)
		var total float64
		const trials = 12
		for seed := int64(0); seed < trials; seed++ {
			res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec,
				Options{Epsilon: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			total += math.Abs(res.Output[0] - truth)
		}
		return total / trials
	}
	small, large := meanErr(1000), meanErr(16000)
	if large > small/2 {
		t.Errorf("error did not converge: n=1000 err %v, n=16000 err %v", small, large)
	}
}

// Property: for any sane configuration, Run returns a result whose output
// arity matches the program and whose metadata is consistent — and it never
// panics.
func TestRunConfigurationProperty(t *testing.T) {
	rows := ageRows(20, 400)
	f := func(epsRaw float64, betaRaw, gammaRaw uint8, seed int64) bool {
		eps := math.Abs(math.Mod(epsRaw, 20)) + 0.01
		beta := int(betaRaw)%100 + 1
		gamma := int(gammaRaw)%3 + 1
		res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows,
			tightSpec(dp.Range{Lo: 0, Hi: 150}),
			Options{Epsilon: eps, Seed: seed, BlockSize: beta, Gamma: gamma})
		if err != nil {
			// Only the documented constraint may reject: gamma exceeding
			// the block count.
			return gamma > gamma*len(rows)/beta
		}
		return len(res.Output) == 1 &&
			res.NumBlocks > 0 &&
			res.BlockSize == beta &&
			res.Gamma == gamma &&
			res.EpsilonSpent == eps &&
			!math.IsNaN(res.Output[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRunWithSubprocessStyleChamberFactory(t *testing.T) {
	// The factory hook is how the platform swaps isolation levels; verify a
	// custom chamber is actually used.
	used := false
	var mu = &used
	rows := ageRows(12, 500)
	opts := Options{
		Epsilon: 5, Seed: 1,
		NewChamber: func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			*mu = true
			return &sandbox.InProcess{Program: prog, Policy: pol}
		},
	}
	if _, err := Run(context.Background(), analytics.Mean{Col: 0}, rows,
		tightSpec(dp.Range{Lo: 0, Hi: 150}), opts); err != nil {
		t.Fatal(err)
	}
	if !used {
		t.Error("custom chamber factory was not invoked")
	}
}

// stubbornChamber pads every block to the policy's quantum and ignores
// cancellation, like a chamber blocked in a syscall.
type stubbornChamber struct {
	quantum time.Duration
	runs    *atomic.Int32
}

func (c stubbornChamber) Execute(context.Context, []mathutil.Vec) (mathutil.Vec, error) {
	c.runs.Add(1)
	time.Sleep(c.quantum)
	return mathutil.Vec{1}, nil
}

// A cancelled run stops dispatching at once: it must not sit on the
// parallelism semaphore until the running quantum-padded block ends and
// then start another one.
func TestRunCancelDoesNotWaitForASlot(t *testing.T) {
	const quantum = 200 * time.Millisecond
	var runs atomic.Int32
	opts := Options{
		Epsilon: 1, BlockSize: 100, Parallelism: 1, Quantum: quantum,
		NewChamber: func(_ analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return stubbornChamber{quantum: pol.Quantum, runs: &runs}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(quantum/4, cancel)
	start := time.Now()
	_, err := Run(ctx, analytics.Mean{Col: 0}, ageRows(13, 1000), tightSpec(dp.Range{Lo: 0, Hi: 150}), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("%d blocks started, want only the one running when the query was cancelled", got)
	}
	if elapsed := time.Since(start); elapsed >= 2*quantum {
		t.Errorf("cancelled run returned after %v, want within one %v quantum", elapsed, quantum)
	}
}

// hoardingChamber makes no ReadOnlyBlocks promise: it runs the program on
// the very block it is handed, then vandalises and keeps it.
type hoardingChamber struct {
	prog analytics.Program
	mu   *sync.Mutex
	kept *[][]mathutil.Vec
}

func (c hoardingChamber) Execute(_ context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	out, err := c.prog.Run(block)
	for _, r := range block {
		r[0] = -1
	}
	c.mu.Lock()
	*c.kept = append(*c.kept, block)
	c.mu.Unlock()
	return out, err
}

// Chambers that do not declare ReadOnlyBlocks get a private copy of every
// block: the caller's rows (the registered table, on the query path)
// survive them, the rows shared between resampled blocks stay honest, and
// a block kept past Execute is not overwritten by the next one on its slot.
func TestRunCopiesBlocksForUndeclaredChambers(t *testing.T) {
	rows := ageRows(14, 2000)
	want := mathutil.CloneRows(rows)
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	opts := Options{Epsilon: 1, Seed: 3, BlockSize: 100, Gamma: 2, Parallelism: 2}
	ref, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var kept [][]mathutil.Vec
	opts.NewChamber = func(prog analytics.Program, _ sandbox.Policy) sandbox.Chamber {
		return hoardingChamber{prog: prog, mu: &mu, kept: &kept}
	}
	got, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Output[0]) != math.Float64bits(ref.Output[0]) {
		t.Errorf("released %v through the mutating chamber, %v through the default one", got.Output, ref.Output)
	}
	for i := range rows {
		if rows[i][0] != want[i][0] {
			t.Fatalf("row %d = %v after the run, want %v: the chamber reached the caller's rows", i, rows[i], want[i])
		}
	}
	for b, block := range kept {
		for _, r := range block {
			if r[0] != -1 {
				t.Fatalf("kept block %d was overwritten after its chamber returned", b)
			}
		}
	}
}
