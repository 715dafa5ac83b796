package experiments

import (
	"fmt"
	"math"

	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/query"
	"gupt/internal/workload"
)

// OptimizerRow is one ε's outcome of the §4.3 validation: what the
// aging-based block-size optimizer chose versus the paper's n^0.6 default,
// both evaluated by their actual measured error on the private data.
type OptimizerRow struct {
	Epsilon     float64
	ChosenBeta  int
	ChosenRMSE  float64 // measured at the chosen beta
	DefaultBeta int
	DefaultRMSE float64 // measured at n^0.6
}

// OptimizerResult validates that the stage's block-size tuning
// (AutoBlockSize, driven only by the aged sample, Eq. 2) picks block sizes
// whose *measured* error on the private data beats the default — the
// mechanism behind the Fig. 9 claim that "GUPT can significantly reduce the
// total error by estimating the optimal block size".
type OptimizerResult struct {
	Query string
	Rows  []OptimizerRow
}

// Optimizer runs the validation for the median query on the internet-ads
// workload at the paper's two budgets: the chosen row asks the stage to
// tune β on the aged sample (AutoBlockSize), the default row leaves β to
// the stage's n^0.6, and each reads the β the stage ran from its result.
func Optimizer(cfg Config) (*OptimizerResult, error) {
	n := cfg.scale(workload.AdsRows, 1200)
	l, err := newLab(workload.InternetAds(cfg.Seed, n),
		dataset.RegisterOptions{TotalBudget: unexhaustible, AgedFraction: 0.2, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	truth := mathutil.Median(l.data.Private.Column(0))
	prog := analytics.Median{Col: 0}
	trials := cfg.scale(30, 8)

	measure := func(eps float64, auto bool) (beta int, rmse float64, err error) {
		var sqErr float64
		for trial := 0; trial < trials; trial++ {
			out, _, err := l.run(query.Query{Program: prog,
				Ranges:        core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{workload.AdsRange()}},
				Options:       core.Options{Epsilon: eps, Seed: cfg.Seed + int64(trial)},
				AutoBlockSize: auto})
			if err != nil {
				return 0, 0, err
			}
			d := out.Output[0] - truth
			sqErr += d * d
			beta = out.BlockSize
		}
		return beta, math.Sqrt(sqErr/float64(trials)) / truth, nil
	}

	res := &OptimizerResult{Query: prog.Name()}
	for _, eps := range []float64{2, 6} {
		row := OptimizerRow{Epsilon: eps}
		if row.ChosenBeta, row.ChosenRMSE, err = measure(eps, true); err != nil {
			return nil, fmt.Errorf("optimizer eps=%v: %w", eps, err)
		}
		if row.DefaultBeta, row.DefaultRMSE, err = measure(eps, false); err != nil {
			return nil, fmt.Errorf("optimizer eps=%v: %w", eps, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the validation.
func (r *OptimizerResult) Table() string {
	t := newTable("epsilon", "chosen beta", "measured RMSE", "default beta (n^0.6)", "default RMSE")
	for _, row := range r.Rows {
		t.addRow(f(row.Epsilon), fmt.Sprintf("%d", row.ChosenBeta), f(row.ChosenRMSE),
			fmt.Sprintf("%d", row.DefaultBeta), f(row.DefaultRMSE))
	}
	return fmt.Sprintf("Block-size optimizer validation (§4.3): aged-sample tuning vs the n^0.6 default, %s\n%s",
		r.Query, t.String())
}
