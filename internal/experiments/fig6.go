package experiments

import (
	"context"
	"fmt"
	"time"

	"gupt/internal/core"
	"gupt/internal/dp"
	"gupt/internal/workload"
)

// Fig6Result reproduces Figure 6: wall-clock completion time versus
// computation size, comparing the non-private run against GUPT-helper and
// GUPT-loose. The paper's claims: GUPT-helper pays an O(n log n)
// percentile estimation over the inputs, GUPT-loose only over the ~n^0.4
// block outputs, and the platform overhead grows slowly relative to the
// computation, because each chamber works on an n^0.6-size block.
//
// The paper grows the computation with k-means iterations. KMeans stops at
// its fixed point, which this table reaches in three, so iterations past it
// cost nothing and that axis is flat. The axis here is the gradient-pass
// count of the logistic regression of Fig. 3, the paper's other iterative
// black box, which does full work on every pass.
type Fig6Result struct {
	Iterations []int
	NonPrivate []time.Duration
	GUPTHelper []time.Duration
	GUPTLoose  []time.Duration
}

// Fig6 runs the experiment.
func Fig6(cfg Config) (*Fig6Result, error) {
	n := cfg.scale(workload.LifeSciRows, 3000)
	rows := workload.LifeSci(cfg.Seed, n).Rows()
	res := &Fig6Result{Iterations: []int{20, 80, 100, 200}}
	if cfg.Quick {
		res.Iterations = []int{5, 20}
	}

	loose := logRegRanges(2) // GUPT-loose gets twice the analyst's weight range
	for _, iters := range res.Iterations {
		prog := lifeSciLogReg(iters)

		start := time.Now()
		if _, err := prog.Run(rows); err != nil {
			return nil, fmt.Errorf("fig6: non-private passes=%d: %w", iters, err)
		}
		res.NonPrivate = append(res.NonPrivate, time.Since(start))

		start = time.Now()
		if _, err := core.Run(context.Background(), prog, rows,
			core.RangeSpec{
				Mode:      core.ModeHelper,
				Input:     workload.LifeSciRanges(),
				Translate: logRegTranslate,
			},
			core.Options{Epsilon: 2, Seed: cfg.Seed}); err != nil {
			return nil, fmt.Errorf("fig6: helper passes=%d: %w", iters, err)
		}
		res.GUPTHelper = append(res.GUPTHelper, time.Since(start))

		start = time.Now()
		if _, err := core.Run(context.Background(), prog, rows,
			core.RangeSpec{Mode: core.ModeLoose, Output: loose},
			core.Options{Epsilon: 2, Seed: cfg.Seed}); err != nil {
			return nil, fmt.Errorf("fig6: loose passes=%d: %w", iters, err)
		}
		res.GUPTLoose = append(res.GUPTLoose, time.Since(start))
	}
	return res, nil
}

// logRegTranslate is GUPT-helper's range translation for the logistic
// regression: whatever the inputs' estimated ranges, every weight and the
// bias lie in the analyst's weight range.
func logRegTranslate(in []dp.Range) []dp.Range { return logRegRanges(1) }

// Table renders the figure's series.
func (r *Fig6Result) Table() string {
	t := newTable("passes", "non-private", "GUPT-helper", "GUPT-loose")
	for i, iters := range r.Iterations {
		t.addRow(fmt.Sprintf("%d", iters),
			r.NonPrivate[i].Round(time.Millisecond).String(),
			r.GUPTHelper[i].Round(time.Millisecond).String(),
			r.GUPTLoose[i].Round(time.Millisecond).String())
	}
	return "Figure 6: completion time vs logistic-regression gradient passes\n" + t.String()
}
