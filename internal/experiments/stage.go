package experiments

import (
	"context"
	"math"

	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/mathutil"
	"gupt/internal/query"
)

// unexhaustible is the budget of a dataset whose figure does not measure
// budget: no number of charges exhausts it, so every query runs.
var unexhaustible = math.Inf(1)

// lab is one figure's dataset registered with the pipeline analysts use: a
// query.Stage over a registry and budget manager of its own, with no cache,
// deadline or host readiness check. Every figure query is planned, charged
// and run as an analyst's would be; only the timing experiments (Fig. 6 and
// §6.2), which measure the engine alone, call core.Run.
type lab struct {
	stage query.Stage
	data  *dataset.Registered
}

// newLab registers t, which the lab then owns, under opts; AgedFraction
// and Seed carve the aged sample as Table.Split(NewRNG(Seed), AgedFraction)
// does.
func newLab(t *dataset.Table, opts dataset.RegisterOptions) (*lab, error) {
	reg := dataset.NewRegistry()
	data, err := reg.Register("data", t, opts)
	if err != nil {
		return nil, err
	}
	return &lab{stage: query.Stage{Registry: reg, Budget: budget.NewManager(reg)}, data: data}, nil
}

// rowsLab registers rows, copied, with an unexhaustible budget.
func rowsLab(rows []mathutil.Vec) (*lab, error) {
	t, err := dataset.FromRows(nil, rows)
	if err != nil {
		return nil, err
	}
	return newLab(t, dataset.RegisterOptions{TotalBudget: unexhaustible})
}

// run runs q against the lab's dataset and returns the release and the ε
// the stage charged for it.
func (l *lab) run(q query.Query) (*core.Result, float64, error) {
	q.Dataset = l.data.Name
	return l.stage.Run(context.Background(), &q)
}

// release runs prog under spec and opts and returns the released output.
func (l *lab) release(prog analytics.Program, spec core.RangeSpec, opts core.Options) (mathutil.Vec, error) {
	res, _, err := l.run(query.Query{Program: prog, Ranges: spec, Options: opts})
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}
