package experiments

import (
	"fmt"

	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/workload"
)

// Fig3Result reproduces Figure 3: logistic-regression classification
// accuracy on the life-sciences dataset as a function of the privacy
// budget, GUPT-tight versus the non-private baseline.
type Fig3Result struct {
	Epsilons []float64
	// GUPTTight[i] is the accuracy of the model released by GUPT at
	// Epsilons[i].
	GUPTTight []float64
	// NonPrivate is the baseline accuracy of the same program run directly
	// on the full dataset (the paper's 94%).
	NonPrivate float64
	// BlockBaseline is the accuracy of the program on a single block of
	// n^0.6 records — the paper's diagnostic that most of GUPT's loss is
	// estimation error, not noise (their 82%).
	BlockBaseline float64
}

// lifeSciLogReg is the black-box program of Figs. 3 and 6: L2-regularized
// logistic regression on the 10 principal components, iters gradient
// passes.
func lifeSciLogReg(iters int) analytics.LogisticRegression {
	return analytics.LogisticRegression{
		FeatureDims: workload.LifeSciDims,
		LabelCol:    workload.LifeSciDims,
		Iters:       iters,
		LearnRate:   0.5,
		L2:          1e-4,
	}
}

// logRegRanges returns one output range per model parameter (the weights,
// then the bias): the analyst's tight [-3, 3] — regularized weights on
// unit-variance features stay small — widened scale times.
func logRegRanges(scale float64) []dp.Range {
	ranges := make([]dp.Range, workload.LifeSciDims+1)
	for i := range ranges {
		ranges[i] = dp.Range{Lo: -3 * scale, Hi: 3 * scale}
	}
	return ranges
}

// Fig3 runs the experiment. ε sweep matches the paper's x-axis.
func Fig3(cfg Config) (*Fig3Result, error) {
	n := cfg.scale(workload.LifeSciRows, 4000)
	data := workload.LifeSci(cfg.Seed, n)
	rows := data.Rows()
	prog := lifeSciLogReg(150)

	// Non-private baseline: the same black box on the full dataset.
	baseParams, err := prog.Run(rows)
	if err != nil {
		return nil, fmt.Errorf("fig3: baseline: %w", err)
	}
	res := &Fig3Result{
		NonPrivate: analytics.ClassificationAccuracy(baseParams, rows, workload.LifeSciDims, workload.LifeSciDims),
	}

	// Single-block diagnostic: accuracy when the program sees only n^0.6
	// records.
	beta := core.DefaultBlockSize(n)
	blockParams, err := prog.Run(rows[:beta])
	if err != nil {
		return nil, fmt.Errorf("fig3: block baseline: %w", err)
	}
	res.BlockBaseline = analytics.ClassificationAccuracy(blockParams, rows, workload.LifeSciDims, workload.LifeSciDims)

	l, err := newLab(data, dataset.RegisterOptions{TotalBudget: unexhaustible})
	if err != nil {
		return nil, err
	}
	ranges := logRegRanges(1)
	res.Epsilons = []float64{2, 4, 6, 8, 10}
	for _, eps := range res.Epsilons {
		out, err := l.release(prog, core.RangeSpec{Mode: core.ModeTight, Output: ranges},
			core.Options{Epsilon: eps, Seed: cfg.Seed + int64(eps*100)})
		if err != nil {
			return nil, fmt.Errorf("fig3: eps=%v: %w", eps, err)
		}
		acc := analytics.ClassificationAccuracy(out, rows, workload.LifeSciDims, workload.LifeSciDims)
		res.GUPTTight = append(res.GUPTTight, acc)
	}
	return res, nil
}

// Table renders the figure's series.
func (r *Fig3Result) Table() string {
	t := newTable("epsilon", "GUPT-tight accuracy", "non-private baseline", "single-block baseline")
	for i, eps := range r.Epsilons {
		t.addRow(f(eps), f(r.GUPTTight[i]), f(r.NonPrivate), f(r.BlockBaseline))
	}
	return "Figure 3: logistic regression accuracy vs privacy budget (life sciences)\n" + t.String()
}

// lifeSciFeatureRows strips the label column, for k-means experiments.
func lifeSciFeatureRows(rows []mathutil.Vec) []mathutil.Vec {
	out := make([]mathutil.Vec, len(rows))
	for i, r := range rows {
		out[i] = r[:workload.LifeSciDims].Clone()
	}
	return out
}
