package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/aging"
	"gupt/internal/core"
	"gupt/internal/dataset"
)

// ErrUnfinishable refuses, before the charge, a plan whose least run time
// (⌈ℓ/P⌉ quanta) is not shorter than the time left before its deadline.
var ErrUnfinishable = errors.New("query: plan cannot finish before its deadline")

// Plan previews the run q would make — its completed range spec, β, γ, ℓ,
// ε and P — without charging anything or reading a private row.
func (s *Stage) Plan(q *Query) (core.Plan, error) {
	reg, err := s.Registry.Lookup(q.Dataset)
	if err != nil {
		return core.Plan{}, err
	}
	if err := q.validate(); err != nil {
		return core.Plan{}, err
	}
	return s.plan(q, reg)
}

// plan is the one place that decides what public inputs decide about q's
// run: the range spec completed from the registered bounds, β, ε (explicit,
// or the least that meets the accuracy goal on the aged sample, §5.1), then
// through core.NewPlan γ, ℓ, P and every check core.Run makes.
func (s *Stage) plan(q *Query, reg *dataset.Registered) (core.Plan, error) {
	spec, err := q.rangeSpec(reg)
	if err != nil {
		return core.Plan{}, err
	}
	opts := q.Options
	n := reg.Private.NumRows()
	if q.Accuracy != nil {
		opts.Epsilon = 1 // provisional, to tune β before the goal settles ε
	}
	if (q.Accuracy != nil || q.AutoBlockSize && opts.BlockSize == 0) && !reg.HasAged() {
		return core.Plan{}, aging.ErrNoAgedData
	}
	// β: explicit, tuned on the aged sample (§4.3), or the default n^0.6.
	switch {
	case opts.BlockSize != 0:
	case !q.AutoBlockSize:
		opts.BlockSize = core.DefaultBlockSize(n)
	default:
		choice, err := aging.OptimizeBlockSize(q.Program, reg.Aged.View(), n, opts.Epsilon, q.planRanges())
		if err != nil {
			return core.Plan{}, err
		}
		opts.BlockSize = choice.BlockSize
	}
	if q.Accuracy != nil {
		est, err := aging.EstimateEpsilon(q.Program, reg.Aged.View(), n, opts.BlockSize, q.planRanges(), *q.Accuracy)
		if err != nil {
			return core.Plan{}, err
		}
		opts.Epsilon = est.Epsilon
	}
	return core.NewPlan(q.Program, n, reg.Private.Dims(), spec, opts)
}

// prepare puts the request's one deadline — the earlier of ctx's and
// Timeout after start — on ctx and runs the host's readiness check under
// it, which lowers each plan's P to what the host can hold in flight now.
// Then it refuses with ErrUnfinishable plans whose least run times add up
// to the time left or more, naming only public numbers.
func (s *Stage) prepare(ctx context.Context, start time.Time, plans []core.Plan) (context.Context, context.CancelFunc, error) {
	deadline, ok := ctx.Deadline()
	if t := start.Add(s.Timeout); s.Timeout > 0 && (!ok || t.Before(deadline)) {
		deadline, ok = t, true
	}
	cancel := context.CancelFunc(func() {})
	if ok {
		ctx, cancel = context.WithDeadline(ctx, deadline)
	}
	if s.Ready != nil {
		live, err := s.Ready(ctx)
		if err != nil {
			cancel()
			return nil, nil, err
		}
		for i := range plans {
			if p := &plans[i].Options.Parallelism; live > 0 && live < *p {
				*p = live
			}
		}
	}
	if !ok {
		return ctx, cancel, nil
	}
	var least time.Duration
	for i := range plans {
		least += plans[i].MinDuration()
	}
	if left := time.Until(deadline); least >= left {
		cancel()
		left = max(left, 0).Round(time.Millisecond)
		if p := &plans[0]; len(plans) == 1 {
			return nil, nil, fmt.Errorf("%w: ℓ = %d blocks at P = %d under a %v quantum take at least %v, and %v is left",
				ErrUnfinishable, p.NumBlocks, p.Options.Parallelism, p.Options.Quantum, least, left)
		}
		return nil, nil, fmt.Errorf("%w: %d members take at least %v in all, and %v is left", ErrUnfinishable, len(plans), least, left)
	}
	return ctx, cancel, nil
}

// WithDeadline is how a host hands the stage a caller's answer-by time; a
// zero deadline leaves ctx as it is.
func WithDeadline(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}
