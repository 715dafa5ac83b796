package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/workload"
)

// OverheadMeasurement is one row of the §6.1 reproduction: the same
// logistic regression through in-process versus subprocess chambers at one
// per-block workload (fixed rows, varying gradient-pass count).
type OverheadMeasurement struct {
	Iters        int
	Runs         int
	InProcess    time.Duration // total across runs
	Subprocess   time.Duration
	OverheadFrac float64 // (sub - in) / in, over each chamber's fastest run
}

// OverheadResult reproduces the §6.1 sandbox-overhead measurement. The
// paper measured its AppArmor sandbox at ≈1.26% on 6,000 k-means runs;
// attaching a MAC profile costs far less than our spawn-a-process-per-block
// isolation, so the absolute percentage differs by construction. The claim
// that transfers — and that the two rows demonstrate — is that isolation
// costs a small *constant per block*, so its relative overhead shrinks as
// the per-block computation grows. The computation grows with logistic
// regression's gradient passes, not k-means iterations: KMeans stops at its
// fixed point, so iterations past it add no work.
type OverheadResult struct {
	Light OverheadMeasurement
	Heavy OverheadMeasurement
}

// OverheadLogReg is the §6.1 block program at iters gradient passes: Fig. 3's
// logistic regression without the L2 penalty, which is what `gupt-app
// -program logreg -dims 10 -label 10 -rate 0.5 -iters N` runs.
func OverheadLogReg(iters int) analytics.LogisticRegression {
	lr := lifeSciLogReg(iters)
	lr.L2 = 0
	return lr
}

// SandboxOverhead measures chamber overhead on a logistic-regression block
// at a light and a heavy gradient-pass count (same rows, so the chamber's
// fixed per-execution costs — spawn and serialization — stay constant while
// the computation grows). appPath, appArgs and appEnv identify an executable
// speaking the sandbox protocol that runs OverheadLogReg; any "{iters}" in
// appArgs is substituted per measurement, and the environment additionally
// carries GUPT_APP_ITERS (the benchmarks pass the test binary re-executed
// in app mode, which reads that variable; cmd/gupt-app takes -iters
// {iters}).
func SandboxOverhead(cfg Config, appPath string, appArgs, appEnv []string) (*OverheadResult, error) {
	res := &OverheadResult{}
	runs := cfg.scale(25, 4)
	light, err := measureOverhead(cfg, 5, runs, appPath, appArgs, appEnv)
	if err != nil {
		return nil, err
	}
	res.Light = light
	heavy, err := measureOverhead(cfg, 120, runs, appPath, appArgs, appEnv)
	if err != nil {
		return nil, err
	}
	res.Heavy = heavy
	return res, nil
}

func measureOverhead(cfg Config, iters, runs int, appPath string, appArgs, appEnv []string) (OverheadMeasurement, error) {
	rows := workload.LifeSci(cfg.Seed, cfg.scale(2000, 400)).Rows()
	prog := OverheadLogReg(iters)
	m := OverheadMeasurement{Iters: iters, Runs: runs}

	args := make([]string, len(appArgs))
	for i, a := range appArgs {
		args[i] = strings.ReplaceAll(a, "{iters}", strconv.Itoa(iters))
	}
	env := append(append([]string(nil), appEnv...), "GUPT_APP_ITERS="+strconv.Itoa(iters))
	ctx := context.Background()

	// The ratio compares each chamber's fastest run: a light in-process run
	// is tens of microseconds of work, so one run the scheduler or the GC
	// interrupted would otherwise decide it.
	var fastIn, fastSub time.Duration
	inproc := &sandbox.InProcess{Program: prog}
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := inproc.Execute(ctx, rows); err != nil {
			return m, fmt.Errorf("overhead: in-process run %d: %w", i, err)
		}
		d := time.Since(start)
		m.InProcess += d
		if i == 0 || d < fastIn {
			fastIn = d
		}
	}

	subproc := &sandbox.Subprocess{Path: appPath, Args: args, ExtraEnv: env}
	for i := 0; i < runs; i++ {
		start := time.Now()
		out, err := subproc.Execute(ctx, rows)
		if err != nil {
			return m, fmt.Errorf("overhead: subprocess run %d: %w", i, err)
		}
		if len(out) != prog.OutputDims() {
			return m, fmt.Errorf("overhead: subprocess returned %d dims, want %d", len(out), prog.OutputDims())
		}
		d := time.Since(start)
		m.Subprocess += d
		if i == 0 || d < fastSub {
			fastSub = d
		}
	}

	m.OverheadFrac = float64(fastSub-fastIn) / float64(fastIn)
	return m, nil
}

// Table renders the measurement.
func (r *OverheadResult) Table() string {
	t := newTable("logreg passes", "runs", "in-process/run", "subprocess/run", "overhead")
	for _, m := range []OverheadMeasurement{r.Light, r.Heavy} {
		t.addRow(fmt.Sprintf("%d", m.Iters), fmt.Sprintf("%d", m.Runs),
			(m.InProcess / time.Duration(m.Runs)).Round(time.Microsecond).String(),
			(m.Subprocess / time.Duration(m.Runs)).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*m.OverheadFrac))
	}
	return "Sandbox overhead (paper §6.1): per-block isolation cost amortizes with computation size\n" + t.String()
}

// ResamplingResult is the §4.2/Claim 1 ablation: output variance of a
// median query at fixed ε and fixed block size as the resampling factor γ
// grows. Claim 1 says the noise does not grow with γ, so total variance
// should fall.
type ResamplingResult struct {
	Gammas    []int
	Variances []float64
}

// ResamplingVariance runs the ablation.
func ResamplingVariance(cfg Config) (*ResamplingResult, error) {
	n := cfg.scale(1200, 600)
	rng := mathutil.NewRNG(cfg.Seed)
	rows := make([]mathutil.Vec, n)
	for i := range rows {
		rows[i] = mathutil.Vec{mathutil.Clamp(rng.LogNormal(3, 0.8), 0, 150)}
	}
	res := &ResamplingResult{Gammas: []int{1, 2, 4, 8}}
	if cfg.Quick {
		res.Gammas = []int{1, 4}
	}
	trials := cfg.scale(50, 12)
	for _, gamma := range res.Gammas {
		outs := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			out, err := coreRunMedian(rows, cfg.Seed+int64(trial), gamma)
			if err != nil {
				return nil, fmt.Errorf("resampling gamma=%d: %w", gamma, err)
			}
			outs = append(outs, out)
		}
		res.Variances = append(res.Variances, mathutil.Variance(outs))
	}
	return res, nil
}

// Table renders the ablation.
func (r *ResamplingResult) Table() string {
	t := newTable("gamma", "output variance")
	for i, g := range r.Gammas {
		t.addRow(fmt.Sprintf("%d", g), f(r.Variances[i]))
	}
	return "Resampling ablation (§4.2, Claim 1): variance vs gamma at fixed eps and block size\n" + t.String()
}
