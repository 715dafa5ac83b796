// Package query is GUPT's computation-manager pipeline (paper §3, Fig. 2),
// once: look the dataset up, fingerprint the query and consult the
// noisy-answer cache, complete the range spec (§4.1), size the blocks
// (§4.3), settle the ε charge — explicit or from an accuracy goal (§5.1) —
// run sample-and-aggregate once under the host's deadline, and fill the
// cache with clean releases. Single queries (Stage.Run) and §5.2
// sessions (Stage.RunSession) share every step.
//
// Hosts are adapters: the embedded gupt.Platform maps its public Query onto
// this package's Query; compman.Server resolves its wire ProgramSpec /
// TranslateSpec first and adds what only a served deployment has — tenant
// id, trace and metrics sinks, a worker-pool chamber factory and
// deadlines. Nothing here knows about transports, authentication or
// scheduling.
package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gupt/internal/aging"
	"gupt/internal/analytics"
	"gupt/internal/budget"
	"gupt/internal/core"
	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/qcache"
	"gupt/internal/telemetry"
)

// Stage is one host's instance of the pipeline. It is safe for concurrent
// use once configured; the zero value of every optional field disables it.
type Stage struct {
	Registry *dataset.Registry
	Budget   *budget.Manager
	// Cache is the noisy-answer cache; nil disables caching (and skips
	// fingerprinting altogether).
	Cache *qcache.Cache
	// Timeout bounds one query's engine time. A run past it aborts with its
	// charge consumed: forced slowness never refunds budget (§6.2).
	Timeout time.Duration
}

// Query describes one differentially private computation over a resolved
// program, plus the per-query things a host supplies.
type Query struct {
	// Tenant attributes the charge, layers the tenant's quota over the
	// global budget and partitions the cache; "" is the single-tenant
	// principal. Label names the charge in the ledger.
	Tenant  string
	Dataset string
	Label   string

	Program analytics.Program
	// Ranges is the engine's range spec as the analyst gave it. In Helper
	// mode a nil Input selects the dataset's registered attribute bounds,
	// and the translation is either the opaque Ranges.Translate closure
	// (uncachable) or its canonical, cachable form Linear — at most one.
	Ranges core.RangeSpec
	Linear *Linear

	// Options carries the engine options: the explicit ε (zero when
	// Accuracy states the goal in utility terms instead — exactly one of
	// the two), block geometry, seed, timing defenses, privacy unit, and
	// the host's execution choices (chamber factory, parallelism, trace
	// and metrics sinks). AutoBlockSize tunes a zero BlockSize from the
	// aged sample.
	Options       core.Options
	Accuracy      *aging.AccuracyGoal
	AutoBlockSize bool

	// Uncachable is set by a host whose chamber factory came from the
	// analyst: an unknown chamber may change the released distribution,
	// and the fingerprint cannot see inside it.
	Uncachable bool
	// Deadline is the caller's absolute answer-by time (zero: none).
	Deadline time.Time
}

// Linear is the canonical range translation for Helper mode: output
// dimension i gets the (scaled, shifted) estimated range of input dimension
// InputDim[i]. Unlike a closure it can be fingerprinted, so queries using
// it stay cachable.
type Linear struct {
	InputDim []int
	Scale    []float64
	Offset   []float64
}

// Func builds the translation for a program with outputDims outputs.
func (l *Linear) Func(outputDims int) (func([]dp.Range) []dp.Range, error) {
	if len(l.InputDim) != outputDims || len(l.Scale) != outputDims || len(l.Offset) != outputDims {
		return nil, fmt.Errorf("query: translate arity %d/%d/%d, want %d",
			len(l.InputDim), len(l.Scale), len(l.Offset), outputDims)
	}
	dims := append([]int(nil), l.InputDim...)
	scale := append([]float64(nil), l.Scale...)
	offset := append([]float64(nil), l.Offset...)
	return func(in []dp.Range) []dp.Range {
		out := make([]dp.Range, outputDims)
		for i := range out {
			d := dims[i]
			if d < 0 || d >= len(in) {
				d = 0
			}
			r := in[d].Scale(scale[i])
			out[i] = dp.Range{Lo: r.Lo + offset[i], Hi: r.Hi + offset[i]}
		}
		return out
	}, nil
}

// planRanges are the output ranges known before the run — what block-size
// tuning and accuracy translation plan against. Helper mode has none.
func (q *Query) planRanges() []dp.Range {
	if q.Ranges.Mode == core.ModeHelper {
		return nil
	}
	return q.Ranges.Output
}

// validate refuses malformed queries before anything is charged.
func (q *Query) validate() error {
	switch {
	case q.Program == nil:
		return errors.New("query needs a program")
	case q.Options.Epsilon > 0 && q.Accuracy != nil:
		return errors.New("set either epsilon or accuracy, not both")
	case !(q.Options.Epsilon > 0) && q.Accuracy == nil:
		return errors.New("query needs a positive epsilon or an accuracy goal")
	case q.Accuracy != nil && q.planRanges() == nil:
		return errors.New("accuracy goals need output ranges (tight or loose mode)")
	case q.AutoBlockSize && q.Options.BlockSize == 0 && q.planRanges() == nil:
		return errors.New("auto block size requires output ranges (tight or loose mode)")
	case q.Ranges.Mode == core.ModeHelper && q.Ranges.Translate == nil && q.Linear == nil:
		return errors.New("helper mode needs a range translation")
	case q.Ranges.Mode == core.ModeHelper && q.Options.UserLevel:
		return core.ErrUserLevelHelper
	}
	return nil
}

// rangeSpec completes the analyst's range spec for Helper mode.
func (q *Query) rangeSpec(reg *dataset.Registered) (spec core.RangeSpec, err error) {
	spec = q.Ranges
	if spec.Mode != core.ModeHelper {
		return spec, nil
	}
	if spec.Input == nil {
		spec.Input = reg.Private.Ranges() // data-owner-registered bounds
	}
	if q.Linear != nil {
		spec.Translate, err = q.Linear.Func(q.Program.OutputDims())
	}
	return spec, err
}

// Run executes one query and returns its differentially private result
// together with the ε this call debited: zero for cache hits and for
// refusals, and the full charge for a run that failed after its charge
// settled (§6.2: aborts never refund). The charge settles before the
// computation runs, so an analyst never observes partial results of a query
// that would overdraw.
func (s *Stage) Run(ctx context.Context, q *Query) (*core.Result, float64, error) {
	// Admission covers everything before the charge. End keeps only its
	// first call, so the deferred error status fires only when an early
	// return skips the explicit ok below.
	admission := q.Options.Trace.StartSpan(telemetry.StageAdmission)
	defer admission.End(telemetry.StatusError)

	reg, err := s.Registry.Lookup(q.Dataset)
	if err != nil {
		return nil, 0, err
	}
	if err := q.validate(); err != nil {
		return nil, 0, err
	}

	// Noisy-answer cache: a repeat of a previously released query — same
	// distribution-relevant fields, same dataset content version — is
	// answered with the same already-published release at zero additional
	// ε (DP is closed under post-processing). The re-release is journaled
	// as a budget-neutral cache_hit record; a ledger that cannot append
	// fails the request, as it would fail every charged query.
	fp, cachable := s.queryFingerprint(q, reg.ContentVersion())
	if cachable {
		if v, ok := s.Cache.Get(fp); ok {
			if err := s.Budget.CacheHitAs(q.Tenant, q.Dataset, q.Label); err != nil {
				return nil, 0, fmt.Errorf("recording cache hit: %w", err)
			}
			res := v.(core.Result)
			res.CacheHit = true
			admission.End(telemetry.StatusOK)
			return &res, 0, nil
		}
	}
	if err := ready(ctx); err != nil {
		return nil, 0, err
	}

	spec, err := q.rangeSpec(reg)
	if err != nil {
		return nil, 0, err
	}
	opts := q.Options

	// Auto block size (§4.3) from the aged sample.
	if q.AutoBlockSize && opts.BlockSize == 0 {
		if !reg.HasAged() {
			return nil, 0, aging.ErrNoAgedData
		}
		planEps := opts.Epsilon
		if planEps <= 0 {
			planEps = 1 // planning default when the accuracy goal resolves ε later
		}
		choice, err := aging.OptimizeBlockSize(q.Program, reg.Aged.View(), reg.Private.NumRows(), planEps, q.planRanges())
		if err != nil {
			return nil, 0, err
		}
		opts.BlockSize = choice.BlockSize
	}
	admission.End(telemetry.StatusOK)

	// Settle the privacy charge.
	charge := opts.Trace.StartSpan(telemetry.StageBudget)
	if opts.Epsilon > 0 {
		err = s.Budget.ChargeAs(q.Tenant, q.Dataset, q.Label, opts.Epsilon)
	} else {
		var est aging.EpsilonEstimate
		est, err = s.Budget.ChargeForAccuracyAs(q.Tenant, q.Dataset, q.Label, q.Program, opts.BlockSize, q.planRanges(), *q.Accuracy)
		opts.Epsilon, opts.BlockSize = est.Epsilon, est.BlockSize
	}
	if err != nil {
		charge.End(telemetry.StatusError)
		return nil, 0, err
	}
	charge.End(telemetry.StatusOK)

	// The engine stages (partition → blocks → aggregation → noising) span
	// themselves inside core.Run. It reads the registered table's cells in
	// place — nothing before this point touched row data, so refusals and
	// cache hits cost the same on any table size — and the chamber makes
	// each block's private copy.
	res, err := s.execute(ctx, q.Program, reg.Private.Matrix(), spec, opts, q.Deadline)
	if err != nil {
		return nil, opts.Epsilon, err
	}

	// Fill with clean releases only: a degraded answer (blocks substituted)
	// is safe to re-serve but would pin the degradation past the fault that
	// caused it. The stored value has CacheHit unset; each hit sets the flag
	// on its own copy.
	release := opts.Trace.StartSpan(telemetry.StageRelease)
	if cachable && res.FailedBlocks == 0 {
		s.Cache.Put(fp, q.Dataset, *res, resultSize(res))
	}
	release.End(telemetry.StatusOK)
	return res, opts.Epsilon, nil
}

// readyKey is the context key of a host's readiness check.
type readyKey struct{}

// WithReadiness returns a copy of ctx carrying check, a host's test that it
// can run a computation at all (guptd's: some worker answers). Run and
// RunSession call it after the cache lookup and before the charge, so a
// repeat needs no readiness and a refusal costs no ε.
func WithReadiness(ctx context.Context, check func(context.Context) error) context.Context {
	return context.WithValue(ctx, readyKey{}, check)
}

// ready runs the readiness check ctx carries, if any.
func ready(ctx context.Context) error {
	if check, ok := ctx.Value(readyKey{}).(func(context.Context) error); ok {
		return check(ctx)
	}
	return nil
}

// execute runs the engine once for a computation whose charge has settled,
// bounded by the stage timeout and the caller's deadline. Failed blocks
// degrade the answer and never fail the run (§6.2), so the only errors left
// after the charge are the deadline and ones the inputs determine.
func (s *Stage) execute(ctx context.Context, program analytics.Program, rows mathutil.Matrix, spec core.RangeSpec, opts core.Options, deadline time.Time) (*core.Result, error) {
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	res, err := core.Run(ctx, program, rows, spec, opts)
	if err != nil && ctx.Err() != nil {
		// The deadline expired (or the caller gave up).
		return nil, fmt.Errorf("query aborted: %w", err)
	}
	return res, err
}

// resultSize approximates a cached result's footprint for the cache's bytes
// gauge.
func resultSize(res *core.Result) int64 {
	return 128 + int64(8*len(res.Output)) + int64(16*len(res.EffectiveRanges))
}
