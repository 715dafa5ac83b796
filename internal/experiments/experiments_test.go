package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/workload"
)

// TestMain doubles as the subprocess app for the sandbox-overhead
// experiment, mirroring the re-exec pattern of the sandbox tests.
func TestMain(m *testing.M) {
	if os.Getenv("GUPT_EXP_APP") == "state" {
		err := sandbox.ServeApp(os.Stdin, os.Stdout, func(block []mathutil.Vec) (mathutil.Vec, error) {
			marker := os.Getenv(sandbox.ScratchEnv) + "/marker"
			found := 0.0
			if _, err := os.Stat(marker); err == nil {
				found = 1
			}
			if err := os.WriteFile(marker, []byte("leak"), 0o600); err != nil {
				return nil, err
			}
			return mathutil.Vec{found}, nil
		})
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("GUPT_EXP_APP") == "logreg" {
		iters, err := strconv.Atoi(os.Getenv("GUPT_APP_ITERS"))
		if err != nil || iters <= 0 {
			iters = 10
		}
		err = sandbox.ServeApp(os.Stdin, os.Stdout, OverheadLogReg(iters).Run)
		if err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var quick = Config{Seed: 42, Quick: true}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: non-private ≈ 94%; GUPT below it but usable; the
	// single-block baseline explains most of the gap.
	if r.NonPrivate < 0.88 {
		t.Errorf("non-private baseline accuracy %v, want >= 0.88", r.NonPrivate)
	}
	for i, acc := range r.GUPTTight {
		if acc < 0.5 {
			t.Errorf("GUPT accuracy at eps=%v is %v — should clearly beat coin flipping", r.Epsilons[i], acc)
		}
		if acc > r.NonPrivate+0.02 {
			t.Errorf("GUPT accuracy %v exceeds non-private baseline %v", acc, r.NonPrivate)
		}
	}
	// Highest-epsilon accuracy should be within reach of the single-block
	// baseline (the dominant loss is estimation, not noise).
	last := r.GUPTTight[len(r.GUPTTight)-1]
	if last < r.BlockBaseline-0.2 {
		t.Errorf("high-eps GUPT accuracy %v too far below block baseline %v", last, r.BlockBaseline)
	}
	if !strings.Contains(r.Table(), "Figure 3") {
		t.Error("Table() missing caption")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.BaselineICV <= 0 {
		t.Fatalf("baseline ICV = %v", r.BaselineICV)
	}
	last := len(r.Epsilons) - 1
	// Tight-mode clustering approaches the baseline (normalized 100) at the
	// largest epsilon.
	if r.GUPTTight[last] > 400 {
		t.Errorf("GUPT-tight at eps=%v normalized ICV %v, want near baseline", r.Epsilons[last], r.GUPTTight[last])
	}
	// Both modes improve as the budget grows.
	if r.GUPTTight[last] >= r.GUPTTight[0] {
		t.Errorf("GUPT-tight did not improve with eps: %v", r.GUPTTight)
	}
	if r.GUPTLoose[last] >= r.GUPTLoose[0] {
		t.Errorf("GUPT-loose did not improve with eps: %v", r.GUPTLoose)
	}
	if !strings.Contains(r.Table(), "Figure 4") {
		t.Error("Table() missing caption")
	}
}

func TestFig5Shape(t *testing.T) {
	r, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	lastIter := len(r.Iterations) - 1
	// GUPT's perturbation is independent of the declared iteration count;
	// PINQ's degrades because its per-iteration budget shrinks.
	guptGrowth := r.Series["GUPT-tight eps=2"][lastIter] / r.Series["GUPT-tight eps=2"][0]
	pinqGrowth := r.Series["PINQ-tight eps=2"][lastIter] / r.Series["PINQ-tight eps=2"][0]
	if guptGrowth > 2 || guptGrowth < 0.5 {
		t.Errorf("GUPT accuracy should be roughly independent of declared iterations; growth %v", guptGrowth)
	}
	if pinqGrowth <= 1.05 {
		t.Errorf("PINQ should degrade with declared iterations; growth %v", pinqGrowth)
	}
	// At the largest declared iteration count, GUPT (even at stricter eps)
	// beats PINQ.
	if r.Series["GUPT-tight eps=2"][lastIter] >= r.Series["PINQ-tight eps=2"][lastIter] {
		t.Errorf("GUPT ICV %v should beat PINQ ICV %v at %d declared iterations",
			r.Series["GUPT-tight eps=2"][lastIter], r.Series["PINQ-tight eps=2"][lastIter], r.Iterations[lastIter])
	}
	if !strings.Contains(r.Table(), "Figure 5") {
		t.Error("Table() missing caption")
	}
}

func TestFig6Shape(t *testing.T) {
	// Every point is wall-clock time, and a loaded machine can stall any
	// single run of one, so each point is the fastest of three runs of the
	// whole figure.
	var r *Fig6Result
	for rep := 0; rep < 3; rep++ {
		run, err := Fig6(quick)
		if err != nil {
			t.Fatal(err)
		}
		if r == nil {
			r = run
			continue
		}
		for i := range r.Iterations {
			r.NonPrivate[i] = min(r.NonPrivate[i], run.NonPrivate[i])
			r.GUPTHelper[i] = min(r.GUPTHelper[i], run.GUPTHelper[i])
			r.GUPTLoose[i] = min(r.GUPTLoose[i], run.GUPTLoose[i])
		}
	}
	last := len(r.Iterations) - 1
	// All runtimes grow with iterations.
	if r.NonPrivate[last] <= r.NonPrivate[0]/2 {
		t.Errorf("non-private time did not grow with iterations: %v", r.NonPrivate)
	}
	// GUPT-helper pays the O(n log n) input percentile cost, so it should
	// not be faster than GUPT-loose at the smallest iteration count by any
	// large margin (both include it in quick mode noise; just sanity-check
	// positivity).
	for i := range r.Iterations {
		if r.GUPTHelper[i] <= 0 || r.GUPTLoose[i] <= 0 {
			t.Errorf("non-positive timing at row %d", i)
		}
	}
	if !strings.Contains(r.Table(), "Figure 6") {
		t.Error("Table() missing caption")
	}
}

func TestFig7Shape(t *testing.T) {
	r, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.VariableEpsilon <= 0 {
		t.Fatalf("variable epsilon = %v", r.VariableEpsilon)
	}
	// The variable policy must meet its contract: >= ~90% of queries at >=
	// 90% accuracy (allow slack for the quick trial count).
	if met := r.MeetsGoal("variable eps"); met < 0.8 {
		t.Errorf("variable eps met the goal on only %v of queries", met)
	}
	// eps=1 overshoots the goal (wasteful), eps=0.3 undershoots it — the
	// paper's point that manual constants are either too much or too little.
	met1 := r.MeetsGoal("constant eps=1")
	met03 := r.MeetsGoal("constant eps=0.3")
	if met1 < met03 {
		t.Errorf("eps=1 (%v) should meet the goal more often than eps=0.3 (%v)", met1, met03)
	}
	if !strings.Contains(r.Table(), "Figure 7") {
		t.Error("Table() missing caption")
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormalizedLifetime["constant eps=1"] != 1 {
		t.Errorf("normalization broken: %+v", r.NormalizedLifetime)
	}
	// The variable policy extends the budget lifetime beyond constant eps=1
	// (the paper's 2.3x) because the estimated eps is below 1.
	if r.VariableEpsilon >= 1 {
		t.Errorf("variable epsilon %v >= 1; expected the accuracy goal to cost less than eps=1", r.VariableEpsilon)
	}
	if r.NormalizedLifetime["variable eps"] <= 1 {
		t.Errorf("variable policy lifetime %v, want > 1", r.NormalizedLifetime["variable eps"])
	}
	// Constant eps=0.3 trivially runs the most queries (but misses accuracy,
	// per Fig 7).
	if r.NormalizedLifetime["constant eps=0.3"] <= r.NormalizedLifetime["constant eps=1"] {
		t.Errorf("eps=0.3 lifetime should exceed eps=1: %+v", r.NormalizedLifetime)
	}
	if !strings.Contains(r.Table(), "Figure 8") {
		t.Error("Table() missing caption")
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Mean: block size 1 is optimal (Example 3) — error grows with beta.
	mean2 := r.Series["mean eps=2"]
	if mean2[0] > mean2[len(mean2)-1] {
		t.Errorf("mean eps=2 error at beta=1 (%v) should be <= at beta=max (%v)", mean2[0], mean2[len(mean2)-1])
	}
	// Median at eps=2: tiny blocks are noisy enough that beta=1 is not
	// clearly optimal; interior or larger blocks should do at least as well.
	med2 := r.Series["median eps=2"]
	best := med2[0]
	for _, v := range med2[1:] {
		if v < best {
			best = v
		}
	}
	if best > med2[0] {
		t.Errorf("median eps=2: no block size beat beta=1 (%v vs %v)", best, med2[0])
	}
	// Higher epsilon reduces error pointwise (same partitions, less noise),
	// at least on average.
	var sum2, sum6 float64
	for i := range r.BlockSizes {
		sum2 += r.Series["median eps=2"][i]
		sum6 += r.Series["median eps=6"][i]
	}
	if sum6 >= sum2 {
		t.Errorf("median eps=6 average error %v not below eps=2 error %v", sum6, sum2)
	}
	if !strings.Contains(r.Table(), "Figure 9") {
		t.Error("Table() missing caption")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("Table 1 has %d rows, want 6", len(rows))
	}
	// Spot-check the rows against the paper's values.
	byName := map[string]Capability{}
	for _, c := range rows {
		byName[c.Name] = c
	}
	if c := byName["Works with unmodified programs"]; !c.GUPT || c.PINQ || c.Airavat {
		t.Errorf("unmodified-programs row wrong: %+v", c)
	}
	if c := byName["Protection against privacy budget attack"]; !c.GUPT || c.PINQ || !c.Airavat {
		t.Errorf("budget-attack row wrong: %+v", c)
	}
	if c := byName["Protection against timing attack"]; !c.GUPT || c.PINQ || c.Airavat {
		t.Errorf("timing-attack row wrong: %+v", c)
	}
	if !strings.Contains(Table1String(), "Table 1") {
		t.Error("Table1String missing caption")
	}
}

func TestSandboxOverheadRuns(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r, err := SandboxOverhead(quick, exe, nil, []string{"GUPT_EXP_APP=logreg"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Light.InProcess <= 0 || r.Light.Subprocess <= 0 {
		t.Fatalf("timings: %+v", r)
	}
	// The §6.1 claim: isolation is a constant per block, so its relative
	// overhead shrinks as per-block computation grows.
	if r.Heavy.OverheadFrac >= r.Light.OverheadFrac {
		t.Errorf("overhead did not amortize: light %.1f%% vs heavy %.1f%%",
			100*r.Light.OverheadFrac, 100*r.Heavy.OverheadFrac)
	}
	if !strings.Contains(r.Table(), "Sandbox overhead") {
		t.Error("Table() missing caption")
	}
}

func TestResamplingVarianceShape(t *testing.T) {
	r, err := ResamplingVariance(quick)
	if err != nil {
		t.Fatal(err)
	}
	first, last := r.Variances[0], r.Variances[len(r.Variances)-1]
	if last >= first {
		t.Errorf("resampling variance did not fall: gamma=%d %v vs gamma=%d %v",
			r.Gammas[0], first, r.Gammas[len(r.Gammas)-1], last)
	}
	if !strings.Contains(r.Table(), "Resampling") {
		t.Error("Table() missing caption")
	}
}

func TestBudgetDistributionShape(t *testing.T) {
	r, err := BudgetDistribution(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The proportional split gives the wide-range variance query most of
	// the budget.
	if r.Epsilons["proportional split"]["variance"] <= r.Epsilons["proportional split"]["mean"] {
		t.Errorf("proportional split allocations wrong: %+v", r.Epsilons["proportional split"])
	}
	// It equalizes the two queries' absolute noise (Example 4): the error
	// imbalance drops versus the equal split, where the variance query's
	// noise exceeds the mean query's by roughly the range ratio.
	if r.NoiseImbalance("proportional split") >= r.NoiseImbalance("equal split") {
		t.Errorf("proportional imbalance %v not below equal split %v",
			r.NoiseImbalance("proportional split"), r.NoiseImbalance("equal split"))
	}
	// And the wide-range variance query's error improves outright.
	if r.AbsErr["proportional split"]["variance"] >= r.AbsErr["equal split"]["variance"] {
		t.Errorf("variance query error did not improve: %v vs %v",
			r.AbsErr["proportional split"]["variance"], r.AbsErr["equal split"]["variance"])
	}
	if !strings.Contains(r.Table(), "Budget distribution") {
		t.Error("Table() missing caption")
	}
}

func TestOptimizerBeatsDefault(t *testing.T) {
	r, err := Optimizer(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.ChosenBeta <= 0 {
			t.Errorf("eps=%v: chosen beta %d", row.Epsilon, row.ChosenBeta)
		}
		// The aged-sample choice must not lose badly to the default; at
		// the paper's budgets it should win outright (small slack for the
		// quick trial count).
		if row.ChosenRMSE > row.DefaultRMSE*1.2 {
			t.Errorf("eps=%v: chosen beta %d RMSE %v worse than default beta %d RMSE %v",
				row.Epsilon, row.ChosenBeta, row.ChosenRMSE, row.DefaultBeta, row.DefaultRMSE)
		}
	}
	if !strings.Contains(r.Table(), "optimizer") {
		t.Error("Table() missing caption")
	}
}

func TestBudgetAttackExperiment(t *testing.T) {
	r, err := BudgetAttack(quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.PINQLeak <= 0 {
		t.Errorf("PINQ budget leak = %v, the attack should extract a positive gap", r.PINQLeak)
	}
	if r.GUPTConditionalSpendPossible {
		t.Error("GUPT reported vulnerable to conditional spends")
	}
	if !strings.Contains(r.Table(), "Privacy-budget attack") {
		t.Error("Table() missing caption")
	}
}

func TestStateAttackExperiment(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r, err := StateAttack(quick, exe, nil, []string{"GUPT_EXP_APP=state"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AiravatLeaked {
		t.Error("Airavat in-process mapper did not carry state — vacuous experiment")
	}
	if r.GUPTLeaked {
		t.Error("GUPT chambers leaked state between executions")
	}
	if !strings.Contains(r.Table(), "State attack") {
		t.Error("Table() missing caption")
	}
}

func TestTimingAttackDefense(t *testing.T) {
	r, err := TimingAttack(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Undefended, the stall leaks loudly; defended, the gap collapses to
	// scheduler noise — far below the planted stall.
	if r.GapUndefended < 100*time.Millisecond {
		t.Errorf("undefended gap %v too small — the attack signal vanished, test is vacuous", r.GapUndefended)
	}
	if r.GapDefended > r.GapUndefended/3 {
		t.Errorf("defended gap %v did not collapse (undefended %v)", r.GapDefended, r.GapUndefended)
	}
	if !strings.Contains(r.Table(), "Timing-attack") {
		t.Error("Table() missing caption")
	}
}

// Every CSV emitter yields a parseable rectangular file with a header.
func TestCSVEmitters(t *testing.T) {
	fig3, err := Fig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	for name, csv := range map[string]string{
		"fig3": fig3.CSV(), "fig8": fig8.CSV(), "fig9": fig9.CSV(),
	} {
		lines := strings.Split(strings.TrimSpace(csv), "\n")
		if len(lines) < 2 {
			t.Errorf("%s: csv has %d lines", name, len(lines))
			continue
		}
		cols := len(strings.Split(lines[0], ","))
		for i, line := range lines {
			if got := len(strings.Split(line, ",")); got != cols {
				t.Errorf("%s: line %d has %d columns, header has %d", name, i, got, cols)
			}
		}
	}
}

func TestConfigScale(t *testing.T) {
	if (Config{Quick: true}).scale(100, 10) != 10 {
		t.Error("quick scale wrong")
	}
	if (Config{}).scale(100, 10) != 100 {
		t.Error("full scale wrong")
	}
	_ = workload.LifeSciRows // the full sizes stay referenced
}
