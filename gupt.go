// Package gupt is the public, embeddable API of the GUPT platform: privacy
// preserving data analysis for programs that were not written with privacy
// in mind (Mohan, Thakurta, Shi, Song, Culler — SIGMOD 2012).
//
// A data owner registers datasets with a lifetime privacy budget; analysts
// submit black-box analysis programs plus either an explicit ε or an
// accuracy goal. GUPT runs each program under the sample-and-aggregate
// framework inside isolated execution chambers and releases only
// ε-differentially private outputs, charging every query against the
// platform-owned budget ledger.
//
// Quickstart:
//
//	p := gupt.New()
//	err := p.Register("census", rows, []string{"age"}, gupt.DatasetOptions{
//		TotalBudget: 10,
//		Ranges:      []gupt.Range{{Lo: 0, Hi: 150}},
//	})
//	res, err := p.Run(ctx, gupt.Query{
//		Dataset:      "census",
//		Program:      gupt.Mean{Col: 0},
//		OutputRanges: []gupt.Range{{Lo: 0, Hi: 150}},
//		Epsilon:      1,
//	})
//	fmt.Println(res.Output[0]) // differentially private average age
//
// For hosted, multi-tenant deployments, see cmd/guptd (the network server)
// and cmd/gupt-cli; this package is the same engine embedded in-process.
package gupt

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
	"gupt/internal/query"
	"gupt/internal/sandbox"
)

// Re-exported building blocks. These are aliases, so values returned by the
// platform interoperate directly with the exported names.
type (
	// Range is a closed interval bounding an attribute or an output
	// dimension.
	Range = dp.Range
	// Program is the black-box analysis program contract: any computation
	// that maps a subset of the dataset's records to a fixed-width vector.
	Program = analytics.Program
	// AccuracyGoal expresses utility in the analyst's terms: "within a
	// factor Rho of the true value with probability Confidence" (§5.1).
	AccuracyGoal = aging.AccuracyGoal
	// Result is a differentially private query result with
	// data-independent diagnostics.
	Result = core.Result
	// RangeMode selects how output ranges are obtained (§4.1).
	RangeMode = core.RangeMode

	// Mean, Median, Variance, Percentile, Covariance, Histogram, KMeans,
	// LogisticRegression, LinearRegression and NaiveBayes are the
	// platform's built-in analysis programs; analysts can equally supply
	// their own Program implementations.
	Mean               = analytics.Mean
	Median             = analytics.Median
	Variance           = analytics.Variance
	Percentile         = analytics.Percentile
	Covariance         = analytics.Covariance
	Histogram          = analytics.Histogram
	KMeans             = analytics.KMeans
	LogisticRegression = analytics.LogisticRegression
	LinearRegression   = analytics.LinearRegression
	NaiveBayes         = analytics.NaiveBayes
	// ProgramFunc adapts a plain function to the Program interface; Pad
	// fixes the output arity of programs whose raw output width varies
	// (§8.1).
	ProgramFunc = analytics.Func
	Pad         = analytics.Pad
)

// Output-range estimation modes (§4.1).
const (
	// Tight: the analyst supplies exact output ranges.
	Tight = core.ModeTight
	// Loose: the analyst supplies loose output ranges; GUPT privately
	// tightens them from the block outputs.
	Loose = core.ModeLoose
	// Helper: the analyst supplies a range-translation function over
	// privately estimated input ranges.
	Helper = core.ModeHelper
)

// ErrBudgetExhausted reports that a dataset's lifetime privacy budget
// cannot cover a query. Budget refusals are atomic: the failed query
// consumes nothing.
var ErrBudgetExhausted = dp.ErrBudgetExhausted

// Platform is an embedded GUPT instance: dataset manager, budget manager,
// and the sample-and-aggregate engine behind one façade. It is safe for
// concurrent use.
type Platform struct {
	// stage is the query pipeline shared with the hosted server; its Cache
	// is nil until EnableCache.
	stage query.Stage
}

// New creates an empty platform.
func New() *Platform {
	reg := dataset.NewRegistry()
	return &Platform{stage: query.Stage{Registry: reg, Budget: budget.NewManager(reg)}}
}

// DatasetOptions configures dataset registration (the data-owner
// interface, §3.1).
type DatasetOptions struct {
	// TotalBudget is the dataset's lifetime ε budget (required, > 0). All
	// queries ever run against the dataset draw from it.
	TotalBudget float64
	// Ranges optionally declares public per-attribute bounds; these must
	// not be data-derived secrets (use public knowledge such as "household
	// income lies in [0, national GDP]").
	Ranges []Range
	// AgedFraction carves the given fraction of records into the aged,
	// no-longer-private sample that powers block-size optimization and
	// accuracy-goal translation (§3.3). Mutually exclusive with AgedRows.
	AgedFraction float64
	// AgedRows supplies an explicit aged sample from the same distribution.
	AgedRows [][]float64
	// Seed drives the aged split deterministically.
	Seed int64
}

// Register adds a dataset of rows (each a vector of float64 attributes)
// under the given name. cols optionally names the columns.
func (p *Platform) Register(name string, rows [][]float64, cols []string, opts DatasetOptions) error {
	tbl := dataset.New(cols)
	for i, r := range rows {
		if err := tbl.Append(mathutil.Vec(r)); err != nil {
			return fmt.Errorf("gupt: row %d: %w", i, err)
		}
	}
	regOpts := dataset.RegisterOptions{
		TotalBudget:  opts.TotalBudget,
		Ranges:       opts.Ranges,
		AgedFraction: opts.AgedFraction,
		Seed:         opts.Seed,
	}
	if opts.AgedRows != nil {
		aged := dataset.New(cols)
		for i, r := range opts.AgedRows {
			if err := aged.Append(mathutil.Vec(r)); err != nil {
				return fmt.Errorf("gupt: aged row %d: %w", i, err)
			}
		}
		regOpts.Aged = aged
	}
	_, err := p.stage.Registry.Register(name, tbl, regOpts)
	return err
}

// RegisterCSV loads a dataset from a CSV file and registers it.
func (p *Platform) RegisterCSV(name, path string, header bool, opts DatasetOptions) error {
	tbl, err := dataset.LoadCSVFile(path, header)
	if err != nil {
		return err
	}
	_, err = p.stage.Registry.Register(name, tbl, dataset.RegisterOptions{
		TotalBudget:  opts.TotalBudget,
		Ranges:       opts.Ranges,
		AgedFraction: opts.AgedFraction,
		Seed:         opts.Seed,
	})
	return err
}

// Unregister removes a dataset and drops its cached answers.
func (p *Platform) Unregister(name string) error {
	p.stage.Cache.Invalidate(name)
	return p.stage.Registry.Unregister(name)
}

// Datasets lists registered dataset names.
func (p *Platform) Datasets() []string { return p.stage.Registry.Names() }

// RemainingBudget reports the unspent lifetime budget of a dataset.
func (p *Platform) RemainingBudget(name string) (float64, error) {
	return p.stage.Budget.Remaining(name)
}

// Query describes one differentially private computation (the analyst
// interface, §3.1).
type Query struct {
	// Dataset names a registered dataset.
	Dataset string
	// Program is the black-box analysis program.
	Program Program

	// Mode selects output-range estimation; the zero value is Tight.
	Mode RangeMode
	// OutputRanges holds per-output-dimension ranges: exact for Tight,
	// loose for Loose. Unused by Helper.
	OutputRanges []Range
	// InputRanges optionally overrides the dataset's registered attribute
	// bounds for Helper mode.
	InputRanges []Range
	// Translate converts privately tightened input ranges to output ranges
	// for Helper mode.
	Translate func([]Range) []Range
	// PercentileLow and PercentileHigh select the inter-percentile pair the
	// Loose/Helper range estimation targets; zero values select the paper's
	// default (0.25, 0.75).
	PercentileLow, PercentileHigh float64

	// Epsilon is the query's explicit privacy budget. Exactly one of
	// Epsilon and Accuracy must be set.
	Epsilon float64
	// Accuracy lets the analyst state the goal in utility terms instead;
	// GUPT computes and charges the minimal ε that meets it (§5.1).
	// Requires the dataset to have an aged sample.
	Accuracy *AccuracyGoal

	// BlockSize overrides the default n^0.6 block size; AutoBlockSize asks
	// GUPT to tune it from the aged sample instead (§4.3).
	BlockSize     int
	AutoBlockSize bool
	// Gamma is the resampling factor (§4.2); 0 or 1 disables resampling.
	Gamma int
	// Seed makes the query reproducible.
	Seed int64
	// Quantum arms the timing-attack defense: each block execution consumes
	// exactly this wall-clock time (§6.2).
	Quantum time.Duration
	// BlockTimeout bounds each block execution from outside the chamber: a
	// block whose chamber has not returned by the deadline contributes the
	// data-independent substitute value instead of stalling the query. Use
	// it whenever Chambers may wedge (remote workers, subprocesses).
	BlockTimeout time.Duration
	// MaxFailFrac aborts the query with core.ErrTooManyFailures when more
	// than this fraction of blocks was substituted — a quality guard for
	// operational failures. The privacy charge stands on abort. Zero
	// disables the guard.
	MaxFailFrac float64
	// Chambers optionally overrides the isolation chamber used for block
	// executions (e.g. subprocess isolation for untrusted binaries); nil
	// selects in-process chambers.
	Chambers func(Program, sandbox.Policy) sandbox.Chamber
	// UserLevel switches the privacy unit from records to users: all rows
	// sharing the value of UserColumn stay together in blocks, so ε covers
	// a user's entire record set (paper §8.1, extension).
	UserLevel  bool
	UserColumn int
}

// Run executes the query and returns its differentially private result.
// The privacy charge is settled against the dataset's ledger before the
// computation runs; refused charges consume nothing. With EnableCache, an
// exact repeat of a previously released query is re-served the same answer
// at zero additional ε.
func (p *Platform) Run(ctx context.Context, q Query) (*Result, error) {
	res, _, err := p.stage.Run(ctx, q.pipeline())
	return res, err
}

// pipeline maps the public query onto the shared pipeline's description
// (internal/query). Analyst-supplied chambers are opaque to the cache
// fingerprint, so they make the query uncachable.
func (q *Query) pipeline() *query.Query {
	label := q.Dataset
	if q.Program != nil {
		label += ":" + q.Program.Name()
	}
	return &query.Query{
		Dataset: q.Dataset,
		Label:   label,
		Program: q.Program,
		Ranges: core.RangeSpec{
			Mode: q.Mode, Output: q.OutputRanges, Input: q.InputRanges, Translate: q.Translate,
			PercentileLow: q.PercentileLow, PercentileHigh: q.PercentileHigh,
		},
		Options: core.Options{
			Epsilon:      q.Epsilon,
			BlockSize:    q.BlockSize,
			Gamma:        q.Gamma,
			Seed:         q.Seed,
			Quantum:      q.Quantum,
			BlockTimeout: q.BlockTimeout,
			MaxFailFrac:  q.MaxFailFrac,
			NewChamber:   q.Chambers,
			UserLevel:    q.UserLevel,
			UserColumn:   q.UserColumn,
		},
		Accuracy:      q.Accuracy,
		AutoBlockSize: q.AutoBlockSize,
		Uncachable:    q.Chambers != nil,
	}
}

// EstimateEpsilon previews the ε an accuracy goal would cost on a dataset
// without charging anything — useful for analysts budgeting a session. It
// requires the dataset to have an aged sample.
func (p *Platform) EstimateEpsilon(name string, program Program, blockSize int, ranges []Range, goal AccuracyGoal) (float64, error) {
	reg, err := p.stage.Registry.Lookup(name)
	if err != nil {
		return 0, err
	}
	if !reg.HasAged() {
		return 0, aging.ErrNoAgedData
	}
	if blockSize == 0 {
		blockSize = core.DefaultBlockSize(reg.Private.NumRows())
	}
	est, err := aging.EstimateEpsilon(program, reg.Aged.View(), reg.Private.NumRows(), blockSize, ranges, goal)
	if err != nil {
		return 0, err
	}
	return est.Epsilon, nil
}

// DefaultBlockSize returns the paper's default block size n^0.6 for a
// dataset of n records, for callers sizing their own queries.
func DefaultBlockSize(n int) int { return core.DefaultBlockSize(n) }

// DistributeBudget splits a total ε across queries proportionally to their
// noise scales (§5.2), equalizing the noise each query suffers. zetas are
// the queries' noise-scale weights (see budget.Zeta: outputWidth·β/n).
func DistributeBudget(total float64, zetas []float64) ([]float64, error) {
	return budget.Distribute(total, zetas)
}

// SynthesizeAgedSample implements the §3.3 suggestion for datasets with no
// naturally aged data: spend eps of the dataset's budget once on a
// differentially private sketch of the distribution, sample count synthetic
// rows from it, and install them as the dataset's aged sample so accuracy
// goals and block-size tuning become available. The charge is atomic; the
// synthetic rows are a post-processing of the DP release and are safe to
// treat as non-private. Requires the dataset to have registered attribute
// ranges. bins controls the sketch resolution (0 selects 32).
func (p *Platform) SynthesizeAgedSample(name string, eps float64, bins, count int, seed int64) error {
	reg, err := p.stage.Registry.Lookup(name)
	if err != nil {
		return err
	}
	ranges := reg.Private.Ranges()
	if ranges == nil {
		return errors.New("gupt: SynthesizeAgedSample needs registered attribute ranges")
	}
	if bins == 0 {
		bins = 32
	}
	if count == 0 {
		count = reg.Private.NumRows() / 10
		if count < 100 {
			count = 100
		}
	}
	if err := reg.Spend("synthesize-aged", eps); err != nil {
		return err
	}
	rows, err := aging.SynthesizeAged(mathutil.NewRNG(seed), reg.Private.View(), ranges, bins, count, eps)
	if err != nil {
		return err
	}
	aged := dataset.New(reg.Private.Columns())
	for i, r := range rows {
		if err := aged.Append(r); err != nil {
			return fmt.Errorf("gupt: synthetic row %d: %w", i, err)
		}
	}
	reg.Aged = aged
	// The aged sample feeds block-size planning and accuracy translation,
	// so installing it mutates the dataset's queryable content: bump the
	// content version (making every existing fingerprint unreachable) and
	// eagerly drop the now-dead cache entries.
	reg.BumpContentVersion()
	p.stage.Cache.Invalidate(name)
	return nil
}
