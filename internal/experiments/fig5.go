package experiments

import (
	"fmt"

	"gupt/internal/analytics"
	"gupt/internal/baseline/pinq"
	"gupt/internal/core"
	"gupt/internal/dp"
	"gupt/internal/workload"
)

// Fig5Result reproduces Figure 5: total perturbation (normalized ICV) as a
// function of the k-means iteration count. PINQ must divide its budget
// across the declared iterations, so conservative iteration estimates
// degrade it; GUPT perturbs only the final output, so its accuracy is
// independent of the iteration count. Note GUPT runs at a *stricter*
// privacy level than PINQ, as in the paper (GUPT ε ∈ {1,2} vs PINQ ∈ {2,4}).
type Fig5Result struct {
	Iterations []int
	// Series maps a configuration label ("PINQ-tight eps=2", "GUPT-tight
	// eps=1", ...) to normalized ICV per iteration count.
	Series map[string][]float64
	// SeriesOrder fixes the rendering order.
	SeriesOrder []string
	BaselineICV float64
}

// Fig5 runs the experiment.
func Fig5(cfg Config) (*Fig5Result, error) {
	n := cfg.scale(workload.LifeSciRows, 4000)
	features := lifeSciFeatureRows(workload.LifeSci(cfg.Seed, n).Rows())

	iterations := []int{20, 80, 200}
	if cfg.Quick {
		iterations = []int{5, 40}
	}

	// Baseline for normalization: non-private k-means at the smallest
	// iteration count (well past convergence for this data).
	base, err := lifeSciKMeans(iterations[0], cfg.Seed).Run(features)
	if err != nil {
		return nil, fmt.Errorf("fig5: baseline: %w", err)
	}
	baseICV, err := icvOfFlat(base, features)
	if err != nil {
		return nil, err
	}

	res := &Fig5Result{
		Iterations:  iterations,
		Series:      make(map[string][]float64),
		SeriesOrder: []string{"PINQ-tight eps=2", "PINQ-tight eps=4", "GUPT-tight eps=1", "GUPT-tight eps=2"},
		BaselineICV: baseICV,
	}

	// PINQ bounds: a single coordinate range covering the data.
	var bound dp.Range
	bound.Lo, bound.Hi = features[0][0], features[0][0]
	for _, r := range features {
		for _, v := range r {
			if v < bound.Lo {
				bound.Lo = v
			}
			if v > bound.Hi {
				bound.Hi = v
			}
		}
	}

	l, err := rowsLab(features)
	if err != nil {
		return nil, err
	}
	// Average each configuration over a few seeds so per-run noise does not
	// mask the trend.
	const trials = 3
	for _, iters := range iterations {
		for _, eps := range []float64{2, 4} {
			var total float64
			for trial := int64(0); trial < trials; trial++ {
				q := pinq.NewQueryable(features, eps+1, cfg.Seed+trial)
				centers, err := pinq.KMeans(q, workload.LifeSciClusters, workload.LifeSciDims,
					iters, bound, eps, cfg.Seed+trial)
				if err != nil {
					return nil, fmt.Errorf("fig5: pinq iters=%d eps=%v: %w", iters, eps, err)
				}
				total += analytics.IntraClusterVariance(features, centers)
			}
			key := fmt.Sprintf("PINQ-tight eps=%g", eps)
			res.Series[key] = append(res.Series[key], 100*total/trials/baseICV)
		}
		for _, eps := range []float64{1, 2} {
			var total float64
			for trial := int64(0); trial < trials; trial++ {
				prog := lifeSciKMeans(iters, cfg.Seed)
				out, err := l.release(prog, core.RangeSpec{Mode: core.ModeTight, Output: kmeansRanges(features, false)},
					core.Options{Epsilon: eps, Seed: cfg.Seed + int64(iters) + trial*7919, BlockSize: cfg.scale(64, 16)})
				if err != nil {
					return nil, fmt.Errorf("fig5: gupt iters=%d eps=%v: %w", iters, eps, err)
				}
				icv, err := icvOfFlat(out, features)
				if err != nil {
					return nil, err
				}
				total += icv
			}
			key := fmt.Sprintf("GUPT-tight eps=%g", eps)
			res.Series[key] = append(res.Series[key], 100*total/trials/baseICV)
		}
	}
	return res, nil
}

// Table renders the figure's series.
func (r *Fig5Result) Table() string {
	header := []string{"iterations"}
	header = append(header, r.SeriesOrder...)
	t := newTable(header...)
	for i, iters := range r.Iterations {
		row := []string{fmt.Sprintf("%d", iters)}
		for _, s := range r.SeriesOrder {
			row = append(row, f(r.Series[s][i]))
		}
		t.addRow(row...)
	}
	return "Figure 5: normalized ICV vs k-means iteration count (PINQ splits budget per iteration; GUPT does not)\n" + t.String()
}
