package gupt

import (
	"context"
	"errors"
	"fmt"

	"gupt/internal/query"
)

// Session plans a batch of queries against one dataset under a single
// session budget, distributing ε across them automatically in proportion to
// their noise scales (paper §5.2). This is the executable form of
// Example 4: the platform, not the analyst, decides how much of the budget
// each query needs so that every query suffers comparable noise.
//
// Usage:
//
//	s := platform.NewSession("census", 2.0)
//	s.Add(gupt.Query{Program: gupt.Mean{Col: 0}, OutputRanges: ...})
//	s.Add(gupt.Query{Program: gupt.Variance{Col: 0}, OutputRanges: ...})
//	results, err := s.Run(ctx)
//
// Queries added to a session must use Tight or Loose mode (the noise-scale
// weight ζ is computed from their output ranges) and must not set their own
// Epsilon or Accuracy — the session owns the budget.
type Session struct {
	platform *Platform
	plan     query.Session
}

// NewSession starts a session holding totalEpsilon for the named dataset.
// The budget is not charged until Run.
func (p *Platform) NewSession(dataset string, totalEpsilon float64) *Session {
	return &Session{platform: p, plan: query.Session{Dataset: dataset, TotalEpsilon: totalEpsilon}}
}

// Add appends a query to the session plan. The query's Dataset, Epsilon and
// Accuracy fields must be unset; everything else (mode, ranges, block size,
// resampling, seed, privacy unit) is per-query.
func (s *Session) Add(q Query) error {
	if q.Dataset != "" && q.Dataset != s.plan.Dataset {
		return fmt.Errorf("gupt: session is bound to %q, query names %q", s.plan.Dataset, q.Dataset)
	}
	if q.Epsilon != 0 || q.Accuracy != nil {
		return errors.New("gupt: session queries must not set Epsilon or Accuracy; the session distributes its own budget")
	}
	member := q.pipeline()
	if err := query.CheckMember(member); err != nil {
		return fmt.Errorf("gupt: %w", err)
	}
	s.plan.Members = append(s.plan.Members, *member)
	s.plan.Label = fmt.Sprintf("session:%s:%d-queries", s.plan.Dataset, len(s.plan.Members))
	return nil
}

// Plan returns the per-query ε allocation the session would charge, without
// charging it. Allocations are proportional to each query's noise scale
// ζ = Σ outputWidth · β / n.
func (s *Session) Plan() ([]float64, error) {
	return s.platform.stage.PlanSession(&s.plan)
}

// Run charges the session budget (atomically: all-or-nothing against the
// dataset's lifetime ledger) and executes every query at its allocated ε,
// returning results in Add order. With EnableCache the batch caches as one
// unit: an exact repeat re-serves every member's published answer and
// charges nothing.
//
// Failures degrade gracefully: once the charge has settled, a query that
// fails mid-session leaves a nil slot in the results and the remaining
// queries still run — aborting would waste the survivors' budget, and
// refunding any of it would reopen the §6.2 privacy-budget attack. The
// returned error joins every per-query failure (nil when all succeeded);
// the session's full budget is consumed either way.
func (s *Session) Run(ctx context.Context) ([]*Result, error) {
	members, _, err := s.platform.stage.RunSession(ctx, &s.plan)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(members))
	var errs []error
	for i, m := range members {
		if m.Err != nil {
			errs = append(errs, fmt.Errorf("gupt: session query %d (%s): %w", i, s.plan.Members[i].Program.Name(), m.Err))
			continue
		}
		results[i] = m.Result
	}
	return results, errors.Join(errs...)
}
