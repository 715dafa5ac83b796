package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/faultinject"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// faultFactory returns a chamber factory that wraps the in-process chamber
// with a fault-injecting one driven by the given schedule.
func faultFactory(sched *faultinject.Schedule, dims int) func(analytics.Program, sandbox.Policy) sandbox.Chamber {
	return func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
		return &faultinject.Chamber{
			Inner:      &sandbox.InProcess{Program: prog, Policy: pol},
			Schedule:   sched,
			OutputDims: dims,
		}
	}
}

// The DP guarantee must hold under every fault schedule: failures are
// replaced by the data-independent range midpoint, so a chamber crashing,
// emitting garbage, or smuggling out-of-range magnitudes must not widen the
// empirical likelihood ratio beyond ε. This reuses the dpcheck harness with
// a per-run fault chamber whose schedule seed equals the run seed, so every
// failure pattern reproduces exactly.
//
// Only instantaneous faults appear here — hang and slow-start are exercised
// separately (they would multiply 2×20000 engine runs by their sleep time).
func TestChaosDPUnderFaultSchedules(t *testing.T) {
	const eps = 1.0
	schedules := map[string]map[faultinject.Kind]float64{
		"crash-heavy": {
			faultinject.CrashBefore: 0.20,
			faultinject.CrashAfter:  0.10,
		},
		"garbage-heavy": {
			faultinject.Garbage:    0.15,
			faultinject.OutOfRange: 0.15,
			faultinject.WrongArity: 0.10,
		},
		"mixed": {
			faultinject.CrashBefore: 0.10,
			faultinject.Garbage:     0.10,
			faultinject.OutOfRange:  0.05,
			faultinject.WrongArity:  0.05,
		},
	}
	for name, rates := range schedules {
		rates := rates
		t.Run(name, func(t *testing.T) {
			adjust := func(o *Options, seed int64) {
				sched := &faultinject.Schedule{Seed: seed, Rates: rates}
				o.NewChamber = faultFactory(sched, 1)
			}
			worst := engineMaxLogRatio(t, Options{Epsilon: eps, BlockSize: 8}, ModeTight, dp.Range{}, 12000, adjust)
			if worst > eps+dpSlack {
				t.Errorf("%s: empirical log-likelihood ratio %.2f exceeds eps=%v (+slack)", name, worst, eps)
			}
		})
	}
}

// chaosRun executes one engine run over all seven fault kinds cycling
// deterministically across the blocks.
func chaosRun(t *testing.T, seed int64) (*Result, *faultinject.Schedule) {
	t.Helper()
	rows := make([]mathutil.Vec, 400)
	for i := range rows {
		rows[i] = mathutil.Vec{float64(20 + i%10)}
	}
	sched := &faultinject.Schedule{
		Plan: []faultinject.Kind{
			faultinject.None,
			faultinject.CrashBefore,
			faultinject.CrashAfter,
			faultinject.Hang,
			faultinject.Garbage,
			faultinject.OutOfRange,
			faultinject.WrongArity,
			faultinject.SlowStart,
		},
		HangFor: 10 * time.Second,       // backstop only; BlockTimeout reclaims hung blocks
		SlowBy:  500 * time.Microsecond, // well inside BlockTimeout: slow-starts must succeed
	}
	res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 100}}},
		Options{
			Epsilon:      1,
			BlockSize:    5, // 80 blocks → each fault kind fires 10 times
			Seed:         seed,
			Parallelism:  1, // sequential execution pins the fault-to-block mapping
			BlockTimeout: 50 * time.Millisecond,
			NewChamber:   faultFactory(sched, 1),
		})
	if err != nil {
		t.Fatal(err)
	}
	return res, sched
}

// One run, all fault kinds at once: crash-before, crash-after, hang,
// garbage, out-of-range, wrong-arity and slow-start each hit 10 of 80
// blocks. The run must complete, substitute exactly the failing kinds
// (crashes, hang, garbage, wrong arity — 50 blocks), pass out-of-range
// outputs to the clamp, and let slow starts finish.
func TestChaosAllFaultKindsAccounted(t *testing.T) {
	res, sched := chaosRun(t, 1)
	if got := sched.Counts()[faultinject.Hang]; got != 10 {
		t.Errorf("hang injections = %d, want 10", got)
	}
	// 5 failing kinds × 10 blocks; OutOfRange and SlowStart must NOT fail.
	if res.FailedBlocks != 50 {
		t.Errorf("FailedBlocks = %d, want 50", res.FailedBlocks)
	}
	if res.NumBlocks != 80 {
		t.Errorf("NumBlocks = %d, want 80", res.NumBlocks)
	}
	if rate, want := float64(res.FailedBlocks)/float64(res.NumBlocks), 50.0/80; rate != want {
		t.Errorf("substituted fraction = %v, want %v", rate, want)
	}
	if math.IsNaN(res.Output[0]) || math.IsInf(res.Output[0], 0) {
		t.Errorf("garbage leaked into the release: output %v", res.Output)
	}
	// Clamping bounds the release: mean of clamped blocks is within the
	// declared range, and Laplace noise at ε=1 cannot carry it to ±1e12.
	if res.Output[0] < -1e3 || res.Output[0] > 1e3 {
		t.Errorf("out-of-range outputs dominated the release: %v", res.Output[0])
	}
}

// The same seed must reproduce the chaos run exactly — output bits, failure
// count and fault schedule all derive from it.
func TestChaosDeterministicReplay(t *testing.T) {
	a, _ := chaosRun(t, 42)
	b, _ := chaosRun(t, 42)
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("outputs differ across identical chaos runs: %v vs %v", a.Output, b.Output)
	}
	if a.FailedBlocks != b.FailedBlocks {
		t.Errorf("failure counts differ: %d vs %d", a.FailedBlocks, b.FailedBlocks)
	}
	c, _ := chaosRun(t, 43)
	if reflect.DeepEqual(a.Output, c.Output) {
		t.Error("different seeds produced identical outputs")
	}
}

// A hung chamber must cost one substituted block, not the query: the
// per-block deadline reclaims it.
func TestBlockTimeoutSubstitutesHungBlock(t *testing.T) {
	rows := make([]mathutil.Vec, 64)
	for i := range rows {
		rows[i] = mathutil.Vec{30}
	}
	sched := &faultinject.Schedule{
		Plan:    []faultinject.Kind{faultinject.Hang, faultinject.None, faultinject.None, faultinject.None},
		HangFor: 10 * time.Second,
	}
	start := time.Now()
	res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 100}}},
		Options{
			Epsilon:      1,
			BlockSize:    16,
			Parallelism:  1,
			BlockTimeout: 50 * time.Millisecond,
			NewChamber:   faultFactory(sched, 1),
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedBlocks != 1 {
		t.Errorf("FailedBlocks = %d, want 1 (the hung block)", res.FailedBlocks)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("query took %v; the hung block should cost ~BlockTimeout", elapsed)
	}
}

// Without a block timeout the caller's context is the only bound; engine
// must surface its cancellation as an abort, not a substituted result.
func TestHangWithoutBlockTimeoutAbortsOnContext(t *testing.T) {
	rows := make([]mathutil.Vec, 64)
	for i := range rows {
		rows[i] = mathutil.Vec{30}
	}
	sched := &faultinject.Schedule{
		Plan:    []faultinject.Kind{faultinject.Hang},
		HangFor: 10 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, analytics.Mean{Col: 0}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 100}}},
		Options{Epsilon: 1, BlockSize: 16, Parallelism: 1, NewChamber: faultFactory(sched, 1)})
	if err == nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context deadline", err)
	}
}

// A run whose every block crashed still releases (§6.2): each block
// contributes the in-range substitute, the noise is drawn as for any run,
// and each block executes exactly once.
func TestEveryBlockCrashedStillReleases(t *testing.T) {
	rows := make([]mathutil.Vec, 64)
	for i := range rows {
		rows[i] = mathutil.Vec{30}
	}
	sched := &faultinject.Schedule{Plan: []faultinject.Kind{faultinject.CrashBefore}}
	res, err := Run(context.Background(), analytics.Mean{Col: 0}, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 100}}},
		Options{Epsilon: 1, BlockSize: 16, Parallelism: 1, NewChamber: faultFactory(sched, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBlocks != 4 || res.FailedBlocks != res.NumBlocks {
		t.Errorf("FailedBlocks = %d of %d, want all 4", res.FailedBlocks, res.NumBlocks)
	}
	if n := sched.Counts()[faultinject.CrashBefore]; n != res.NumBlocks {
		t.Errorf("%d block executions, want %d", n, res.NumBlocks)
	}
	if res.EpsilonSpent != 1 || math.IsNaN(res.Output[0]) || math.IsInf(res.Output[0], 0) {
		t.Errorf("release = %v at ε %v", res.Output, res.EpsilonSpent)
	}
}

// Non-finite program outputs are substituted, never aggregated: a single
// NaN would otherwise ride through clamping into the released mean.
func TestNonFiniteOutputSubstituted(t *testing.T) {
	rows := make([]mathutil.Vec, 64)
	for i := range rows {
		rows[i] = mathutil.Vec{30}
	}
	poison := analytics.Func{
		ProgName: "poison",
		Dims:     1,
		F: func(block []mathutil.Vec) (mathutil.Vec, error) {
			return mathutil.Vec{math.NaN()}, nil
		},
	}
	res, err := Run(context.Background(), poison, rows,
		RangeSpec{Mode: ModeTight, Output: []dp.Range{{Lo: 0, Hi: 100}}},
		Options{Epsilon: 1, BlockSize: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedBlocks != res.NumBlocks {
		t.Errorf("FailedBlocks = %d, want all %d", res.FailedBlocks, res.NumBlocks)
	}
	if math.IsNaN(res.Output[0]) {
		t.Error("NaN leaked into the released output")
	}
}

// A chamber that makes no promise about its rows still cannot reach the
// table when it sits inside a fault-injecting one, which is a RowChamber:
// with no fault scheduled, faultinject.Chamber hands its inner chamber the
// block through sandbox.Rows, whose adapter gives every block a fresh
// private copy. The release is the default chamber's, bit for bit, the
// caller's rows are unchanged, and no kept block is overwritten.
func TestFaultChamberCopiesBlocksForUndeclaredInner(t *testing.T) {
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
	sched := &faultinject.Schedule{Seed: 1}
	opts.NewChamber = func(prog analytics.Program, _ sandbox.Policy) sandbox.Chamber {
		return &faultinject.Chamber{Inner: hoardingChamber{prog: prog, mu: &mu, kept: &kept}, Schedule: sched, OutputDims: 1}
	}
	got, err := Run(context.Background(), analytics.Mean{Col: 0}, rows, spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Output[0]) != math.Float64bits(ref.Output[0]) {
		t.Errorf("released %v through the fault chamber, %v through the default one", got.Output, ref.Output)
	}
	if n := sched.Counts()[faultinject.None]; n != ref.NumBlocks || len(kept) != ref.NumBlocks {
		t.Fatalf("%d untouched executions and %d kept blocks, want %d of each", n, len(kept), ref.NumBlocks)
	}
	for i := range rows {
		if rows[i][0] != want[i][0] {
			t.Fatalf("row %d = %v after the run, want %v: the inner chamber reached the caller's rows", i, rows[i], want[i])
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
