package experiments

import (
	"errors"
	"fmt"

	"gupt/internal/dp"
)

// Fig8Result reproduces Figure 8: the normalized lifetime of a dataset's
// total privacy budget — how many average-age queries each policy can run
// before exhausting it, normalized to the constant ε = 1 policy. The paper
// reports the variable-ε policy running ≈ 2.3× more queries than ε = 1.
type Fig8Result struct {
	Policies []string
	// Queries is how many queries each policy completed on the same total
	// budget.
	Queries map[string]int
	// NormalizedLifetime is Queries normalized to the constant ε=1 policy.
	NormalizedLifetime map[string]float64
	VariableEpsilon    float64
}

// Fig8 runs the experiment: each policy's queries run against a fresh
// registration of the dataset with the same total budget, each charged by
// the budget manager, until it refuses one.
func Fig8(cfg Config) (*Fig8Result, error) {
	const totalBudget = 30.0
	res := &Fig8Result{
		Policies:           []string{"constant eps=1", "variable eps", "constant eps=0.3"},
		Queries:            make(map[string]int),
		NormalizedLifetime: make(map[string]float64),
	}
	for _, name := range res.Policies {
		l, err := censusLab(cfg, totalBudget)
		if err != nil {
			return nil, err
		}
		for {
			_, eps, err := l.run(l.avgAgeQuery(name, cfg.Seed+int64(res.Queries[name])))
			if errors.Is(err, dp.ErrBudgetExhausted) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("fig8: %s query %d: %w", name, res.Queries[name], err)
			}
			res.Queries[name]++
			if name == "variable eps" {
				res.VariableEpsilon = eps
			}
		}
	}
	base := res.Queries["constant eps=1"]
	for name, q := range res.Queries {
		res.NormalizedLifetime[name] = float64(q) / float64(base)
	}
	return res, nil
}

// Table renders the figure's bars.
func (r *Fig8Result) Table() string {
	t := newTable("policy", "queries on shared budget", "normalized lifetime")
	for _, p := range r.Policies {
		t.addRow(p, fmt.Sprintf("%d", r.Queries[p]), f(r.NormalizedLifetime[p]))
	}
	return fmt.Sprintf("Figure 8: privacy budget lifetime by policy (variable eps = %s)\n%s",
		f(r.VariableEpsilon), t.String())
}
