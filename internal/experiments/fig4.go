package experiments

import (
	"fmt"

	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/workload"
)

// Fig4Result reproduces Figure 4: normalized intra-cluster variance of
// k-means on the life-sciences dataset versus privacy budget, for
// GUPT-tight and GUPT-loose, against the non-private baseline ICV.
// Normalization: 100 × ICV / baselineICV, so the baseline sits at 100 and
// lower is better.
type Fig4Result struct {
	Epsilons    []float64
	GUPTTight   []float64 // normalized ICV per epsilon
	GUPTLoose   []float64
	BaselineICV float64 // raw (unnormalized) non-private ICV
}

// lifeSciKMeans is the black box of Figs. 4 and 5.
func lifeSciKMeans(iters int, seed int64) analytics.KMeans {
	return analytics.KMeans{
		K:           workload.LifeSciClusters,
		FeatureDims: workload.LifeSciDims,
		Iters:       iters,
		Seed:        seed,
	}
}

// kmeansRanges returns per-coordinate output ranges for the flattened
// centers: tight uses the exact per-attribute min/max of the data (as the
// paper does for GUPT-tight), loose doubles it (the paper's [min·2, max·2]).
func kmeansRanges(rows []mathutil.Vec, loose bool) []dp.Range {
	dims := workload.LifeSciDims
	ranges := make([]dp.Range, dims)
	for d := 0; d < dims; d++ {
		lo, hi := rows[0][d], rows[0][d]
		for _, r := range rows {
			if r[d] < lo {
				lo = r[d]
			}
			if r[d] > hi {
				hi = r[d]
			}
		}
		if loose {
			lo, hi = 2*lo, 2*hi
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		ranges[d] = dp.Range{Lo: lo, Hi: hi}
	}
	out := make([]dp.Range, 0, workload.LifeSciClusters*dims)
	for c := 0; c < workload.LifeSciClusters; c++ {
		out = append(out, ranges...)
	}
	return out
}

// icvOfFlat computes the intra-cluster variance of a flattened center
// vector against the feature rows.
func icvOfFlat(flat mathutil.Vec, rows []mathutil.Vec) (float64, error) {
	centers, err := analytics.UnflattenCenters(flat, workload.LifeSciClusters, workload.LifeSciDims)
	if err != nil {
		return 0, err
	}
	return analytics.IntraClusterVariance(rows, centers), nil
}

// Fig4 runs the experiment over the paper's ε sweep.
func Fig4(cfg Config) (*Fig4Result, error) {
	n := cfg.scale(workload.LifeSciRows, 4000)
	features := lifeSciFeatureRows(workload.LifeSci(cfg.Seed, n).Rows())
	iters := cfg.scale(20, 8)
	prog := lifeSciKMeans(iters, cfg.Seed)

	baseFlat, err := prog.Run(features)
	if err != nil {
		return nil, fmt.Errorf("fig4: baseline: %w", err)
	}
	baseICV, err := icvOfFlat(baseFlat, features)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{BaselineICV: baseICV}

	if cfg.Quick {
		res.Epsilons = []float64{1, 8}
	} else {
		res.Epsilons = []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0, 3.0, 4.0}
	}
	// The k-means output is K·dims = 40 dimensional, so the Theorem-1 split
	// leaves ε/40 per coordinate; the default n^0.6 blocks would drown in
	// noise. A smaller block size (more blocks) buys the noise down — the
	// §4.3 tuning the aging model automates, fixed here for reproducibility.
	blockSize := cfg.scale(64, 16)
	tightRanges := kmeansRanges(features, false)
	looseRanges := kmeansRanges(features, true)
	l, err := rowsLab(features)
	if err != nil {
		return nil, err
	}
	for _, eps := range res.Epsilons {
		tight, err := l.release(prog, core.RangeSpec{Mode: core.ModeTight, Output: tightRanges},
			core.Options{Epsilon: eps, Seed: cfg.Seed + int64(eps*1000), BlockSize: blockSize})
		if err != nil {
			return nil, fmt.Errorf("fig4: tight eps=%v: %w", eps, err)
		}
		icv, err := icvOfFlat(tight, features)
		if err != nil {
			return nil, err
		}
		res.GUPTTight = append(res.GUPTTight, 100*icv/baseICV)

		loose, err := l.release(prog, core.RangeSpec{Mode: core.ModeLoose, Output: looseRanges},
			core.Options{Epsilon: eps, Seed: cfg.Seed + int64(eps*1000) + 1, BlockSize: blockSize})
		if err != nil {
			return nil, fmt.Errorf("fig4: loose eps=%v: %w", eps, err)
		}
		icv, err = icvOfFlat(loose, features)
		if err != nil {
			return nil, err
		}
		res.GUPTLoose = append(res.GUPTLoose, 100*icv/baseICV)
	}
	return res, nil
}

// Table renders the figure's series.
func (r *Fig4Result) Table() string {
	t := newTable("epsilon", "GUPT-tight (norm ICV)", "GUPT-loose (norm ICV)", "baseline (norm)")
	for i, eps := range r.Epsilons {
		t.addRow(f(eps), f(r.GUPTTight[i]), f(r.GUPTLoose[i]), "100")
	}
	return fmt.Sprintf("Figure 4: k-means normalized intra-cluster variance vs privacy budget\n(baseline raw ICV = %s)\n%s",
		f(r.BaselineICV), t.String())
}
