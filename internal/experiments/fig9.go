package experiments

import (
	"fmt"
	"math"

	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/workload"
)

// Fig9Result reproduces Figure 9: normalized RMSE of the mean and median
// aspect-ratio queries on the internet-ads dataset as the block size β
// sweeps upward, at ε = 2 and ε = 6. The paper's shape: the mean is best at
// β = 1 (averaging is already what SAF does), while the median at ε = 2 has
// an interior optimum (≈10) after which noise reduction no longer pays for
// estimation bias; at ε = 6 the median keeps improving over the swept range.
type Fig9Result struct {
	BlockSizes []int
	// Series maps "mean eps=2" etc. to normalized RMSE per block size.
	Series      map[string][]float64
	SeriesOrder []string
	TrueMean    float64
	TrueMedian  float64
}

// Fig9 runs the experiment.
func Fig9(cfg Config) (*Fig9Result, error) {
	n := cfg.scale(workload.AdsRows, 1200)
	data := workload.InternetAds(cfg.Seed, n)
	col := data.Column(0)

	res := &Fig9Result{
		BlockSizes:  []int{1, 2, 5, 10, 20, 30, 40, 50, 60, 70},
		Series:      make(map[string][]float64),
		SeriesOrder: []string{"mean eps=2", "mean eps=6", "median eps=2", "median eps=6"},
		TrueMean:    mathutil.Mean(col),
		TrueMedian:  mathutil.Median(col),
	}
	if cfg.Quick {
		res.BlockSizes = []int{1, 10, 40}
	}
	trials := cfg.scale(30, 6)
	ranges := []dp.Range{workload.AdsRange()}
	l, err := newLab(data, dataset.RegisterOptions{TotalBudget: unexhaustible})
	if err != nil {
		return nil, err
	}

	type queryDef struct {
		name  string
		prog  analytics.Program
		eps   float64
		truth float64
	}
	queries := []queryDef{
		{"mean eps=2", analytics.Mean{Col: 0}, 2, res.TrueMean},
		{"mean eps=6", analytics.Mean{Col: 0}, 6, res.TrueMean},
		{"median eps=2", analytics.Median{Col: 0}, 2, res.TrueMedian},
		{"median eps=6", analytics.Median{Col: 0}, 6, res.TrueMedian},
	}
	for _, q := range queries {
		for _, beta := range res.BlockSizes {
			var sqErr float64
			for trial := 0; trial < trials; trial++ {
				out, err := l.release(q.prog, core.RangeSpec{Mode: core.ModeTight, Output: ranges},
					core.Options{Epsilon: q.eps, Seed: cfg.Seed + int64(trial*1000+beta), BlockSize: beta})
				if err != nil {
					return nil, fmt.Errorf("fig9: %s beta=%d: %w", q.name, beta, err)
				}
				d := out[0] - q.truth
				sqErr += d * d
			}
			rmse := math.Sqrt(sqErr / float64(trials))
			res.Series[q.name] = append(res.Series[q.name], rmse/q.truth)
		}
	}
	return res, nil
}

// Table renders the figure's series.
func (r *Fig9Result) Table() string {
	header := []string{"block size"}
	header = append(header, r.SeriesOrder...)
	t := newTable(header...)
	for i, beta := range r.BlockSizes {
		row := []string{fmt.Sprintf("%d", beta)}
		for _, s := range r.SeriesOrder {
			row = append(row, f(r.Series[s][i]))
		}
		t.addRow(row...)
	}
	return "Figure 9: normalized RMSE vs block size (internet ads aspect ratio)\n" + t.String()
}
