package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/telemetry"
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
	// owns the tenant, the dataset and the ε: a member's own Tenant,
	// Dataset, Label, Options.Epsilon and Accuracy are ignored. Their
	// shared Options.Trace also takes the session's own stage spans.
	Members []Query
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

// PlanSession returns the per-member ε allocation the session would charge,
// without charging it: proportional to each member's noise scale
// ζ = Σ outputWidth · β / n.
func (s *Stage) PlanSession(sess *Session) ([]float64, error) {
	plans, _, err := s.planSession(sess)
	alloc := make([]float64, len(plans))
	for i := range plans {
		alloc[i] = plans[i].Options.Epsilon
	}
	return alloc, err
}

// planSession plans every member as a single query at a provisional ε of
// 1, then gives each its share of the session's ε, which its β decides.
func (s *Stage) planSession(sess *Session) ([]core.Plan, *dataset.Registered, error) {
	if len(sess.Members) == 0 {
		return nil, nil, errors.New("empty session")
	}
	reg, err := s.Registry.Lookup(sess.Dataset)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]core.Plan, len(sess.Members))
	zetas := make([]float64, len(sess.Members))
	for i := range sess.Members {
		m := sess.Members[i]
		if err := CheckMember(&m); err != nil {
			return nil, nil, fmt.Errorf("session query %d: %w", i, err)
		}
		m.Options.Epsilon, m.Accuracy = 1, nil
		if plans[i], err = s.plan(&m, reg); err != nil {
			return nil, nil, fmt.Errorf("session query %d: %w", i, err)
		}
		if zetas[i], err = budget.Zeta(m.Ranges.Output, plans[i].Options.BlockSize, plans[i].N); err != nil {
			return nil, nil, fmt.Errorf("session query %d: %w", i, err)
		}
	}
	alloc, err := budget.Distribute(sess.TotalEpsilon, zetas)
	for i := range alloc {
		plans[i].Options.Epsilon = alloc[i]
	}
	return plans, reg, err
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
	// The same three stage spans as Run, on the members' shared trace.
	var tr *telemetry.Trace
	if len(sess.Members) > 0 {
		tr = sess.Members[0].Options.Trace
	}
	admission := tr.StartSpan(telemetry.StageAdmission)
	defer admission.End(telemetry.StatusError)
	start := time.Now()
	plans, reg, err := s.planSession(sess)
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
				out[i] = MemberResult{Result: &r, Epsilon: plans[i].Options.Epsilon}
			}
			admission.End(telemetry.StatusOK)
			return out, 0, nil
		}
	}
	// The members run one after another under the request's one deadline:
	// the session is refused before its charge unless all can finish by it.
	ctx, cancel, err := s.prepare(ctx, start, plans)
	if err != nil {
		return nil, 0, err
	}
	defer cancel()
	admission.End(telemetry.StatusOK)

	// One atomic charge for the whole session; per-member epsilons then
	// flow from the session's own pot, so a mid-session failure cannot
	// leave the ledger inconsistent with what was released.
	charge := tr.StartSpan(telemetry.StageBudget)
	if err := s.Budget.ChargeAs(sess.Tenant, sess.Dataset, sess.Label, sess.TotalEpsilon); err != nil {
		charge.End(telemetry.StatusError)
		return nil, 0, err
	}
	charge.End(telemetry.StatusOK)

	rows := reg.Private.Matrix()
	clean := true
	for i := range plans {
		res, err := execute(ctx, &plans[i], rows)
		out[i] = MemberResult{Result: res, Err: err, Epsilon: plans[i].Options.Epsilon}
		clean = clean && err == nil && res.FailedBlocks == 0
	}
	// Fill only when every member released cleanly, the same stance as
	// standalone queries: re-serving a partially failed batch would pin its
	// failures.
	release := tr.StartSpan(telemetry.StageRelease)
	if cachable && clean {
		stored := make([]core.Result, len(out))
		var size int64
		for i := range out {
			stored[i] = *out[i].Result
			size += resultSize(out[i].Result)
		}
		s.Cache.Put(fp, sess.Dataset, stored, size)
	}
	release.End(telemetry.StatusOK)
	return out, sess.TotalEpsilon, nil
}
