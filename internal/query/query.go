// Package query is GUPT's computation-manager pipeline (paper §3, Fig. 2),
// once: look the dataset up, fingerprint the query and consult the
// noisy-answer cache, plan the run from public inputs — complete the range
// spec (§4.1), size the blocks (§4.3), settle ε, explicit or from an
// accuracy goal (§5.1), and refuse what cannot finish by the deadline — then
// check the host is ready, charge the plan's ε, run sample-and-aggregate
// once under the request's one deadline, and fill the cache with clean
// releases. Single queries (Stage.Run) and §5.2 sessions (Stage.RunSession)
// share every step.
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
	// Timeout bounds a whole request, session or query, from its start, as
	// does the context's deadline. A plan that cannot finish in time is
	// refused before its charge; a run past it aborts with its charge
	// consumed: forced slowness never refunds budget (§6.2).
	Timeout time.Duration
	// Ready, when set, checks that the host can run a computation at all
	// (guptd's: some worker answers) and reports how many blocks it can
	// hold in flight now, its P; zero leaves each plan's P as planned. It
	// runs after the plan and before the deadline bound and the charge, so
	// a cache hit needs no readiness, the bound sees the live fleet, and a
	// refusal costs no ε.
	Ready func(context.Context) (int, error)
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

// validate refuses a query description that cannot be fingerprinted or
// planned; the plan checks the rest.
func (q *Query) validate() error {
	switch {
	case q.Program == nil:
		return errors.New("query needs a program")
	case q.Options.Epsilon > 0 && q.Accuracy != nil:
		return errors.New("set either epsilon or accuracy, not both")
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
	start := time.Now()

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
	// The plan decides everything public — geometry, ε, the deadline — and
	// what cannot run is refused before the charge, at zero ε.
	plan, err := s.plan(q, reg)
	if err != nil {
		return nil, 0, err
	}
	plans := []core.Plan{plan}
	ctx, cancel, err := s.prepare(ctx, start, plans)
	if err != nil {
		return nil, 0, err
	}
	defer cancel()
	p := &plans[0]
	admission.End(telemetry.StatusOK)

	// Settle the privacy charge.
	charge := p.Options.Trace.StartSpan(telemetry.StageBudget)
	if err := s.Budget.ChargeAs(q.Tenant, q.Dataset, q.Label, p.Options.Epsilon); err != nil {
		charge.End(telemetry.StatusError)
		return nil, 0, err
	}
	charge.End(telemetry.StatusOK)

	// The engine stages (partition → blocks → aggregation → noising) span
	// themselves inside Execute. It reads the registered table's cells in
	// place — nothing before this point touched row data, so refusals and
	// cache hits cost the same on any table size — and the chamber makes
	// each block's private copy.
	res, err := execute(ctx, p, reg.Private.Matrix())
	if err != nil {
		return nil, p.Options.Epsilon, err
	}

	// Fill with clean releases only: a degraded answer (blocks substituted)
	// is safe to re-serve but would pin the degradation past the fault that
	// caused it. The stored value has CacheHit unset; each hit sets the flag
	// on its own copy.
	release := p.Options.Trace.StartSpan(telemetry.StageRelease)
	if cachable && res.FailedBlocks == 0 {
		s.Cache.Put(fp, q.Dataset, *res, resultSize(res))
	}
	release.End(telemetry.StatusOK)
	return res, p.Options.Epsilon, nil
}

// execute runs a plan whose charge has settled. Failed blocks degrade the
// answer and never fail the run (§6.2), so the only errors left after the
// charge are the deadline and ones the rows determine.
func execute(ctx context.Context, p *core.Plan, rows mathutil.Matrix) (*core.Result, error) {
	res, err := p.Execute(ctx, rows)
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
