package query

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/workload"
)

// goldenRelease is one released answer as it was when the table was
// written: the output bits, the ε it spent, the block geometry and the
// effective ranges.
type goldenRelease struct {
	output []float64
	eps    float64
	blocks int
	beta   int
	ranges []dp.Range
}

// goldenQuery is one seeded Stage.Run or RunSession on a fresh stage, and
// the releases it made, in member order for a session.
type goldenQuery struct {
	name string
	run  func(*Stage) ([]*core.Result, error)
	want []goldenRelease
}

// goldenStage serves a 4 000-row census table with public attribute
// bounds and a 10 % aged sample, under an ε budget no row exhausts.
func goldenStage(t *testing.T) *Stage {
	t.Helper()
	reg := dataset.NewRegistry()
	_, err := reg.Register("census", workload.CensusIncome(11, 4000), dataset.RegisterOptions{
		TotalBudget:  100,
		Ranges:       []dp.Range{workload.CensusLooseRange()},
		AgedFraction: 0.1,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Stage{Registry: reg, Budget: budget.NewManager(reg)}
}

// runOne adapts a single query to the table's session-shaped rows.
func runOne(q *Query) func(*Stage) ([]*core.Result, error) {
	return func(s *Stage) ([]*core.Result, error) {
		res, _, err := s.Run(context.Background(), q)
		return []*core.Result{res}, err
	}
}

// The pipeline's decisions above core.Run, pinned bit for bit: what the
// stage chooses (ε, β, ranges, the session split) before the engine draws.
// A change to any of those decisions, or to the draws the engine makes from
// the seed they hand it, fails here by name.
var goldenQueries = []goldenQuery{
	{
		// Accuracy goal: Stage.plan picks ε from the aged sample with
		// aging.EstimateEpsilon, at the default β = n^0.6 of the private
		// rows.
		name: "accuracy",
		run: runOne(&Query{
			Dataset: "census", Program: analytics.Mean{Col: 0},
			Ranges:   core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
			Accuracy: &aging.AccuracyGoal{Rho: 0.9, Confidence: 0.9},
			Options:  core.Options{Seed: 7},
		}),
		want: []goldenRelease{
			{output: []float64{37.94163431002355}, eps: 6.6561357725534425,
				blocks: 26, beta: 136, ranges: []dp.Range{{Lo: 0, Hi: 150}}},
		},
	},
	{
		// AutoBlockSize: aging.OptimizeBlockSize picks β from the aged
		// sample at the query's ε.
		name: "auto-block",
		run: runOne(&Query{
			Dataset: "census", Program: analytics.Median{Col: 0},
			Ranges:        core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
			AutoBlockSize: true,
			Options:       core.Options{Epsilon: 1, Seed: 9},
		}),
		want: []goldenRelease{
			{output: []float64{36.343901610482426}, eps: 1,
				blocks: 327, beta: 11, ranges: []dp.Range{{Lo: 0, Hi: 150}}},
		},
	},
	{
		// Linear helper translation: the registered input bound, the
		// range seed's private percentile estimate, then scale and offset.
		name: "linear-helper",
		run: runOne(&Query{
			Dataset: "census", Program: analytics.Mean{Col: 0},
			Ranges:  core.RangeSpec{Mode: core.ModeHelper},
			Linear:  &Linear{InputDim: []int{0}, Scale: []float64{1.5}, Offset: []float64{-2}},
			Options: core.Options{Epsilon: 2, BlockSize: 60, Seed: 5},
		}),
		want: []goldenRelease{
			{output: []float64{40.76964041517055}, eps: 2,
				blocks: 60, beta: 60, ranges: []dp.Range{{Lo: 41.08178876852643, Hi: 66.4205410716837}}},
		},
	},
	{
		// §5.2 session: the total ε split in proportion to each member's
		// ζ = width·β/n, and each member seeded from its own options.
		name: "session",
		run: func(s *Stage) ([]*core.Result, error) {
			out, _, err := s.RunSession(context.Background(), &Session{
				Dataset: "census", TotalEpsilon: 3,
				Members: []Query{
					{Program: analytics.Mean{Col: 0},
						Ranges:  core.RangeSpec{Mode: core.ModeTight, Output: []dp.Range{{Lo: 0, Hi: 150}}},
						Options: core.Options{Seed: 1}},
					{Program: analytics.Median{Col: 0},
						Ranges:  core.RangeSpec{Mode: core.ModeLoose, Output: []dp.Range{{Lo: 0, Hi: 100}}},
						Options: core.Options{BlockSize: 40, Gamma: 2, Seed: 2}},
				},
			})
			if err != nil {
				return nil, err
			}
			res := make([]*core.Result, len(out))
			for i, m := range out {
				if m.Err != nil {
					return nil, fmt.Errorf("member %d: %w", i, m.Err)
				}
				res[i] = m.Result
			}
			return res, nil
		},
		want: []goldenRelease{
			{output: []float64{46.33288485656497}, eps: 2.5081967213114753,
				blocks: 26, beta: 136, ranges: []dp.Range{{Lo: 0, Hi: 150}}},
			{output: []float64{33.333702929073006}, eps: 0.4918032786885246,
				blocks: 180, beta: 40, ranges: []dp.Range{{Lo: 0.6749479323071912, Hi: 61.83732307873967}}},
		},
	},
}

// TestStageAnswersPinned holds each row's releases to the bits they had when
// the table was written; the message prints the new rows.
func TestStageAnswersPinned(t *testing.T) {
	for _, g := range goldenQueries {
		got, err := g.run(goldenStage(t))
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		same := len(got) == len(g.want)
		for i := 0; same && i < len(got); i++ {
			same = sameRelease(got[i], g.want[i])
		}
		if !same {
			t.Errorf("%s released a different answer; now:\n%s", g.name, goldenRows(got))
		}
	}
}

func sameRelease(res *core.Result, w goldenRelease) bool {
	same := len(res.Output) == len(w.output) && len(res.EffectiveRanges) == len(w.ranges) &&
		math.Float64bits(res.EpsilonSpent) == math.Float64bits(w.eps) &&
		res.NumBlocks == w.blocks && res.BlockSize == w.beta
	for i := 0; same && i < len(w.output); i++ {
		same = math.Float64bits(res.Output[i]) == math.Float64bits(w.output[i])
	}
	for i := 0; same && i < len(w.ranges); i++ {
		same = math.Float64bits(res.EffectiveRanges[i].Lo) == math.Float64bits(w.ranges[i].Lo) &&
			math.Float64bits(res.EffectiveRanges[i].Hi) == math.Float64bits(w.ranges[i].Hi)
	}
	return same
}

// goldenRows prints releases as the want field of a goldenQuery literal.
func goldenRows(rs []*core.Result) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	b.WriteString("want: []goldenRelease{\n")
	for _, res := range rs {
		b.WriteString("\t{output: []float64{")
		for i, v := range res.Output {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f(v))
		}
		fmt.Fprintf(&b, "}, eps: %s,\n\t\tblocks: %d, beta: %d, ranges: []dp.Range{", f(res.EpsilonSpent), res.NumBlocks, res.BlockSize)
		for i, r := range res.EffectiveRanges {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{Lo: %s, Hi: %s}", f(r.Lo), f(r.Hi))
		}
		b.WriteString("}},\n")
	}
	b.WriteString("},")
	return b.String()
}
