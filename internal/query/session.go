package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
)

// Session is a batch of queries against one dataset under a single budget,
// distributed across the members in proportion to their noise scales
// (paper §5.2) and charged atomically before anything runs.
type Session struct {
	Tenant  string
	Dataset string
	Label   string

	TotalEpsilon float64
	// Members are queries with Tight or Loose output ranges. The session
	// owns the tenant, the dataset, the ε and the deadline: a member's own
	// Tenant, Dataset, Label, Options.Epsilon, Accuracy and Deadline are
	// ignored.
	Members  []Query
	Deadline time.Time
}

// MemberResult is one member's outcome. The session's budget is charged up
// front, so a member that fails reports Err here while the rest of the
// batch still runs; its Epsilon share is consumed either way (§6.2).
type MemberResult struct {
	Result  *core.Result
	Err     error
	Epsilon float64
}

// CheckMember reports whether q can join a session: the noise-scale weight
// ζ is computed from its output ranges, so it needs a program and one
// Tight or Loose range per output dimension.
func CheckMember(q *Query) error {
	switch {
	case q.Program == nil:
		return errors.New("session query needs a program")
	case q.Ranges.Mode != core.ModeTight && q.Ranges.Mode != core.ModeLoose:
		return errors.New("session queries need output ranges (tight or loose mode)")
	case len(q.Ranges.Output) != q.Program.OutputDims():
		return fmt.Errorf("%d output ranges for %d output dims", len(q.Ranges.Output), q.Program.OutputDims())
	}
	return nil
}

// Plan returns the per-member ε allocation the session would charge,
// without charging it: proportional to each member's noise scale
// ζ = Σ outputWidth · β / n.
func (s *Stage) Plan(sess *Session) ([]float64, error) {
	alloc, _, err := s.plan(sess)
	return alloc, err
}

func (s *Stage) plan(sess *Session) ([]float64, *dataset.Registered, error) {
	if len(sess.Members) == 0 {
		return nil, nil, errors.New("empty session")
	}
	reg, err := s.Registry.Lookup(sess.Dataset)
	if err != nil {
		return nil, nil, err
	}
	n := reg.Private.NumRows()
	zetas := make([]float64, len(sess.Members))
	for i := range sess.Members {
		m := &sess.Members[i]
		if err := CheckMember(m); err != nil {
			return nil, nil, fmt.Errorf("session query %d: %w", i, err)
		}
		beta := m.Options.BlockSize
		if beta == 0 {
			beta = core.DefaultBlockSize(n)
		}
		if zetas[i], err = budget.Zeta(m.Ranges.Output, beta, n); err != nil {
			return nil, nil, fmt.Errorf("session query %d: %w", i, err)
		}
	}
	alloc, err := budget.Distribute(sess.TotalEpsilon, zetas)
	return alloc, reg, err
}

// RunSession charges the session budget (all-or-nothing) and executes every
// member at its allocated ε, returning outcomes in member order and the ε
// this call debited (zero for a cache hit or a refusal).
//
// Failures degrade gracefully: once the charge has settled, a member that
// fails leaves its error in its slot and the remaining members still run —
// aborting would waste the survivors' budget, and refunding any of it would
// reopen the §6.2 privacy-budget attack.
func (s *Stage) RunSession(ctx context.Context, sess *Session) ([]MemberResult, float64, error) {
	alloc, reg, err := s.plan(sess)
	if err != nil {
		return nil, 0, err
	}
	out := make([]MemberResult, len(sess.Members))

	// The batch caches as one unit: a hit re-serves every member's
	// published answer and charges nothing.
	fp, cachable := s.sessionFingerprint(sess, reg.ContentVersion())
	if cachable {
		if v, ok := s.Cache.Get(fp); ok {
			if err := s.Budget.CacheHitAs(sess.Tenant, sess.Dataset, sess.Label); err != nil {
				return nil, 0, fmt.Errorf("recording cache hit: %w", err)
			}
			for i, r := range v.([]core.Result) {
				r.CacheHit = true // on this member's own copy
				out[i] = MemberResult{Result: &r, Epsilon: alloc[i]}
			}
			return out, 0, nil
		}
	}
	if err := ready(ctx); err != nil {
		return nil, 0, err
	}

	// One atomic charge for the whole session; per-member epsilons then
	// flow from the session's own pot, so a mid-session failure cannot
	// leave the ledger inconsistent with what was released.
	if err := s.Budget.ChargeAs(sess.Tenant, sess.Dataset, sess.Label, sess.TotalEpsilon); err != nil {
		return nil, 0, err
	}

	rows := reg.Private.Matrix()
	clean := true
	for i := range sess.Members {
		m := &sess.Members[i]
		opts := m.Options
		opts.Epsilon = alloc[i]
		// Members are Tight or Loose (CheckMember), so the analyst's range
		// spec is already complete.
		res, err := s.execute(ctx, m.Program, rows, m.Ranges, opts, sess.Deadline)
		out[i] = MemberResult{Result: res, Err: err, Epsilon: alloc[i]}
		clean = clean && err == nil && res.FailedBlocks == 0
	}
	// Fill only when every member released cleanly, the same stance as
	// standalone queries: re-serving a partially failed batch would pin its
	// failures.
	if cachable && clean {
		stored := make([]core.Result, len(out))
		var size int64
		for i := range out {
			stored[i] = *out[i].Result
			size += resultSize(out[i].Result)
		}
		s.Cache.Put(fp, sess.Dataset, stored, size)
	}
	return out, sess.TotalEpsilon, nil
}
