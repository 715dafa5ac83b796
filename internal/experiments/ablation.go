package experiments

import (
	"context"
	"errors"
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

// DistributionResult is the §5.2/Example 4 ablation: running an average and
// a variance query on the census ages under (a) an equal split of the total
// budget and (b) the ζ-proportional split. As in the paper's Example 4, the
// proportional split equalizes the *absolute* Laplace noise the two queries
// suffer, instead of letting the wide-range variance query's noise exceed
// the mean query's by a factor of max.
type DistributionResult struct {
	// AbsErr[policy][query] is the mean absolute error across trials.
	AbsErr map[string]map[string]float64
	// Epsilons[policy][query] is the per-query allocation.
	Epsilons map[string]map[string]float64
	Policies []string
	Queries  []string
}

// BudgetDistribution runs the ablation: the equal split as two standalone
// queries at half the total each, the proportional split as one session,
// which the stage splits in proportion to each member's ζ.
func BudgetDistribution(cfg Config) (*DistributionResult, error) {
	n := cfg.scale(workload.CensusRows, 6000)
	data := workload.CensusIncome(cfg.Seed, n)
	col := data.Column(0)
	trueMean := mathutil.Mean(col)
	trueVar := mathutil.Variance(col)
	l, err := newLab(data, dataset.RegisterOptions{TotalBudget: unexhaustible})
	if err != nil {
		return nil, err
	}

	const totalEps = 2.0
	const beta = 64
	maxAge := 150.0
	meanQuery := query.Query{Program: analytics.Mean{Col: 0},
		Ranges:  core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: maxAge}}},
		Options: core.Options{BlockSize: beta}}
	// Variance of ages lies in [0, max^2/4].
	varQuery := query.Query{Program: analytics.Variance{Col: 0},
		Ranges:  core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: maxAge * maxAge / 4}}},
		Options: core.Options{BlockSize: beta}}

	res := &DistributionResult{
		AbsErr:   map[string]map[string]float64{},
		Epsilons: map[string]map[string]float64{},
		Policies: []string{"equal split", "proportional split"},
		Queries:  []string{"mean", "variance"},
	}
	policies := map[string]func(members []query.Query) ([]query.MemberResult, error){
		"equal split": func(members []query.Query) ([]query.MemberResult, error) {
			out := make([]query.MemberResult, len(members))
			for i, q := range members {
				q.Options.Epsilon = totalEps / float64(len(members))
				out[i].Result, out[i].Epsilon, out[i].Err = l.run(q)
			}
			return out, nil
		},
		"proportional split": func(members []query.Query) ([]query.MemberResult, error) {
			out, _, err := l.stage.RunSession(context.Background(),
				&query.Session{Dataset: l.data.Name, TotalEpsilon: totalEps, Members: members})
			return out, err
		},
	}
	trials := cfg.scale(30, 8)
	for policy, run := range policies {
		res.AbsErr[policy] = map[string]float64{}
		var meanErr, varErr float64
		for trial := 0; trial < trials; trial++ {
			seed := cfg.Seed + int64(trial)
			meanQuery.Options.Seed, varQuery.Options.Seed = seed, seed+7919
			out, err := run([]query.Query{meanQuery, varQuery})
			if err == nil {
				err = errors.Join(out[0].Err, out[1].Err)
			}
			if err != nil {
				return nil, fmt.Errorf("distribution %s: %w", policy, err)
			}
			res.Epsilons[policy] = map[string]float64{"mean": out[0].Epsilon, "variance": out[1].Epsilon}
			meanErr += math.Abs(out[0].Result.Output[0] - trueMean)
			varErr += math.Abs(out[1].Result.Output[0] - trueVar)
		}
		res.AbsErr[policy]["mean"] = meanErr / float64(trials)
		res.AbsErr[policy]["variance"] = varErr / float64(trials)
	}
	return res, nil
}

// NoiseImbalance returns the ratio of a policy's larger query error to its
// smaller one — the quantity the ζ-proportional split drives toward 1.
func (r *DistributionResult) NoiseImbalance(policy string) float64 {
	a, b := r.AbsErr[policy]["mean"], r.AbsErr[policy]["variance"]
	if a < b {
		a, b = b, a
	}
	if b == 0 {
		return math.Inf(1)
	}
	return a / b
}

// Table renders the ablation.
func (r *DistributionResult) Table() string {
	t := newTable("policy", "query", "epsilon", "mean absolute error")
	for _, p := range r.Policies {
		for _, q := range r.Queries {
			t.addRow(p, q, f(r.Epsilons[p][q]), f(r.AbsErr[p][q]))
		}
	}
	return "Budget distribution ablation (§5.2, Example 4): equal vs zeta-proportional split\n" + t.String()
}
