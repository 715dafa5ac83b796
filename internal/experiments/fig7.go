package experiments

import (
	"fmt"
	"math"
	"sort"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/query"
	"gupt/internal/workload"
)

// fig7BlockCount fixes the paper's "pre-determined block size" for the
// census average-age query of Figs. 7 and 8 via a constant block *count*,
// so quick and full runs have the same noise geometry: β = n/300.
const fig7BlockCount = 300

func fig7BlockSize(n int) int {
	beta := n / fig7BlockCount
	if beta < 1 {
		beta = 1
	}
	return beta
}

// fig7Goal is the variable policy's accuracy goal: "90% accuracy for 90%
// of results".
var fig7Goal = aging.AccuracyGoal{Rho: 0.9, Confidence: 0.9}

// policyEpsilon is each budget policy of Figs. 7 and 8: a constant ε, or
// zero for the variable policy, which states fig7Goal and is charged the ε
// the stage settles for it on the aged sample (§5.1).
var policyEpsilon = map[string]float64{
	"constant eps=1":   1,
	"constant eps=0.3": 0.3,
	"variable eps":     0,
}

// censusLab registers the census table of Figs. 7 and 8 with a total
// budget, 10% of it fully aged (the paper's setup).
func censusLab(cfg Config, total float64) (*lab, error) {
	n := cfg.scale(workload.CensusRows, 6000)
	return newLab(workload.CensusIncome(cfg.Seed, n),
		dataset.RegisterOptions{TotalBudget: total, AgedFraction: 0.1, Seed: cfg.Seed})
}

// avgAgeQuery is the average-age query of Figs. 7 and 8 under a policy.
func (l *lab) avgAgeQuery(policy string, seed int64) query.Query {
	q := query.Query{Program: analytics.Mean{Col: 0},
		Ranges:  core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{workload.CensusLooseRange()}},
		Options: core.Options{Epsilon: policyEpsilon[policy], Seed: seed, BlockSize: fig7BlockSize(l.data.Private.NumRows())}}
	if q.Options.Epsilon == 0 {
		q.Accuracy = &fig7Goal
	}
	return q
}

// Fig7Result reproduces Figure 7: the CDF of result accuracy for the
// average-age query on the census dataset under three budget policies —
// constant ε = 1, constant ε = 0.3, and the variable ε chosen by GUPT to
// meet "90% accuracy for 90% of results" from the aged sample.
type Fig7Result struct {
	// Accuracies[policy][q] is query q's accuracy 1 − |out−truth|/truth,
	// sorted ascending (so index/len is the CDF).
	Accuracies map[string][]float64
	Policies   []string
	// VariableEpsilon is the ε the stage charged the variable policy's
	// queries for the accuracy goal.
	VariableEpsilon float64
	// ExpectedAccuracy is the goal line (0.9).
	ExpectedAccuracy float64
	// TrueMean is the dataset's true average age.
	TrueMean float64
}

// Fig7 runs the experiment: many repetitions of the same query under each
// policy, accuracy recorded per repetition. The figure does not measure
// budget, so its dataset's budget cannot be exhausted.
func Fig7(cfg Config) (*Fig7Result, error) {
	l, err := censusLab(cfg, unexhaustible)
	if err != nil {
		return nil, err
	}
	truth := mathutil.Mean(l.data.Private.Column(0))

	trials := cfg.scale(100, 20)
	res := &Fig7Result{
		Accuracies:       make(map[string][]float64),
		Policies:         []string{"constant eps=1", "constant eps=0.3", "variable eps"},
		ExpectedAccuracy: fig7Goal.Rho,
		TrueMean:         truth,
	}
	for _, name := range res.Policies {
		accs := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			out, eps, err := l.run(l.avgAgeQuery(name, cfg.Seed+int64(trial)))
			if err != nil {
				return nil, fmt.Errorf("fig7: %s trial %d: %w", name, trial, err)
			}
			if name == "variable eps" {
				res.VariableEpsilon = eps
			}
			acc := 1 - math.Abs(out.Output[0]-truth)/truth
			if acc < 0 {
				acc = 0
			}
			accs = append(accs, acc)
		}
		sort.Float64s(accs)
		res.Accuracies[name] = accs
	}
	return res, nil
}

// MeetsGoal reports the fraction of a policy's queries meeting the expected
// accuracy.
func (r *Fig7Result) MeetsGoal(policy string) float64 {
	accs := r.Accuracies[policy]
	if len(accs) == 0 {
		return 0
	}
	met := 0
	for _, a := range accs {
		if a >= r.ExpectedAccuracy {
			met++
		}
	}
	return float64(met) / float64(len(accs))
}

// Table renders CDF summary points per policy.
func (r *Fig7Result) Table() string {
	t := newTable("policy", "epsilon", "p10 accuracy", "median accuracy", "p90 accuracy", "frac >= goal")
	for _, p := range r.Policies {
		accs := r.Accuracies[p]
		eps := policyEpsilon[p]
		if eps == 0 {
			eps = r.VariableEpsilon
		}
		t.addRow(p, f(eps),
			f(mathutil.QuantileSorted(accs, 0.1)),
			f(mathutil.QuantileSorted(accs, 0.5)),
			f(mathutil.QuantileSorted(accs, 0.9)),
			f(r.MeetsGoal(p)))
	}
	return fmt.Sprintf("Figure 7: CDF of query accuracy under budget policies (goal: %.0f%% accuracy for 90%% of queries)\n%s",
		100*r.ExpectedAccuracy, t.String())
}
