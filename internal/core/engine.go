package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// Options configures one sample-and-aggregate run.
type Options struct {
	// Epsilon is the query's total privacy budget (required, > 0). The
	// engine never spends more than this; how it is divided between range
	// estimation and aggregation follows Theorem 1 for the chosen mode.
	Epsilon float64
	// BlockSize is the nominal block size β; 0 selects the paper's default
	// n^0.6. Use internal/aging.OptimizeBlockSize to tune it from aged data.
	BlockSize int
	// Gamma is the resampling factor γ of §4.2; 0 or 1 disables resampling.
	Gamma int
	// Seed makes the run deterministic: partitioning, range estimation and
	// noise all derive from it.
	Seed int64
	// Parallelism bounds concurrent block executions; 0 selects GOMAXPROCS.
	Parallelism int
	// Quantum, when positive, enforces the timing-attack defense: every
	// block execution consumes exactly this wall-clock time (paper §6.2).
	Quantum time.Duration
	// BlockTimeout, when positive, bounds each block execution's wall-clock
	// time from outside the chamber: a block whose chamber has not returned
	// by the deadline is abandoned and contributes the substitute value.
	// Unlike Quantum (enforced inside the chamber, and also a lower bound),
	// this guards against chambers that are themselves wedged — hung worker
	// connections, stuck subprocesses — so a single bad executor degrades
	// accuracy instead of stalling the query forever.
	BlockTimeout time.Duration
	// MaxFailFrac, when positive, aborts the run with ErrTooManyFailures if
	// more than this fraction of blocks was substituted — a quality guard
	// for operational failures (dead workers), since a result computed
	// mostly from substitutes is noise around a constant. Note the abort
	// signal reveals the failure count, exactly as Result.FailedBlocks
	// already does; see SECURITY.md on the failure-channel trade-off.
	MaxFailFrac float64
	// NewChamber builds the isolation chamber used for block executions;
	// nil selects an in-process chamber. The hosted platform injects a
	// subprocess chamber here.
	NewChamber func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber
	// UserLevel switches the privacy unit from records to users: all rows
	// sharing the value of UserColumn are placed in the same block(s), so
	// the ε guarantee covers a user's entire record set (paper §8.1,
	// implemented as an extension — see MakeGroupedPartition).
	UserLevel  bool
	UserColumn int
	// Metrics receives engine-level observability: block outcome counters
	// (engine.blocks_ok / blocks_substituted / blocks_timed_out) and the
	// parallelism-occupancy gauge (engine.blocks_inflight). Nil disables.
	// Only event counts flow here — never block data or raw durations.
	Metrics *telemetry.Registry
	// Trace, when non-nil, records one span per engine stage (partition,
	// blocks, aggregation, noising) of this run's lifecycle.
	Trace *telemetry.Trace
}

func (o Options) withDefaults(n int) Options {
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize(n)
	}
	if o.Gamma == 0 {
		o.Gamma = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.NewChamber == nil {
		o.NewChamber = func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return &sandbox.InProcess{Program: prog, Policy: pol}
		}
	}
	return o
}

// Result is the differentially private output of one run, plus
// data-independent (or itself differentially private) diagnostics.
type Result struct {
	// Output is the ε-differentially private result vector.
	Output mathutil.Vec
	// Mode records which range-estimation mode ran.
	Mode RangeMode
	// EffectiveRanges are the per-dimension output ranges actually used for
	// clamping and noise. For ModeLoose and ModeHelper these were estimated
	// under differential privacy, so exposing them is safe.
	EffectiveRanges []dp.Range
	// EpsilonSpent is the total privacy budget the run consumed.
	EpsilonSpent float64
	// NumBlocks, BlockSize and Gamma describe the partition geometry.
	NumBlocks int
	BlockSize int
	Gamma     int
	// FailedBlocks counts block executions that were killed, crashed, or
	// returned a malformed output and were replaced by the
	// data-independent substitute.
	FailedBlocks int
	// CacheHit marks a result re-served from the noisy-answer cache: the
	// identical already-released output at zero additional ε
	// (post-processing). EpsilonSpent then reports what the original
	// release cost; nothing was charged for this repeat. The engine never
	// sets this — the caching layers above (gupt.Platform, compman.Server)
	// do.
	CacheHit bool
}

// SubstitutionRate reports the fraction of blocks that contributed the
// substitute value instead of a real output — the run's degradation level.
// 0 means every block computed; 1 means the output is pure noise around
// the range midpoints.
func (r *Result) SubstitutionRate() float64 {
	if r.NumBlocks == 0 {
		return 0
	}
	return float64(r.FailedBlocks) / float64(r.NumBlocks)
}

// ErrTooManyFailures reports that a run exceeded Options.MaxFailFrac: so
// many blocks were substituted that the result would be mostly noise around
// the data-independent substitute. The privacy charge for the run stands.
var ErrTooManyFailures = errors.New("core: too many failed blocks")

// Run executes program over rows under the sample-and-aggregate framework
// and returns an Options.Epsilon-differentially private result. It does not
// touch any budget ledger — callers (the computation manager) charge the
// dataset's accountant before invoking Run.
func Run(ctx context.Context, program analytics.Program, rows []mathutil.Vec, spec RangeSpec, opts Options) (*Result, error) {
	if program == nil {
		return nil, errors.New("core: nil program")
	}
	n := len(rows)
	if n == 0 {
		return nil, errors.New("core: empty dataset")
	}
	if err := dpCheckEpsilon(opts.Epsilon); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(n)

	inputDims := len(rows[0])
	outputDims := program.OutputDims()
	if outputDims <= 0 {
		return nil, fmt.Errorf("core: program %q declares %d output dims", program.Name(), outputDims)
	}
	if err := spec.validate(inputDims, outputDims); err != nil {
		return nil, err
	}

	rng := mathutil.NewRNG(opts.Seed)
	partRNG := rng.Split()
	rangeRNG := rng.Split()
	noiseRNG := rng.Split()

	// Span pattern: End keeps only its first call, so the deferred error
	// status fires only when an early return skips the explicit ok.
	partSpan := opts.Trace.StartSpan(telemetry.StagePartition)
	defer partSpan.End(telemetry.StatusError)

	var part *Partition
	var err error
	if opts.UserLevel {
		groups, gerr := GroupRowsByColumn(rows, opts.UserColumn)
		if gerr != nil {
			return nil, gerr
		}
		part, err = MakeGroupedPartition(partRNG, n, groups, opts.BlockSize, opts.Gamma)
	} else {
		part, err = MakePartition(partRNG, n, opts.BlockSize, opts.Gamma)
	}
	if err != nil {
		return nil, err
	}
	// Every goroutine that reads the partition has ended by the time Run
	// returns (runBlocks waits for its own; chambers copy what they keep).
	defer part.release()

	// Theorem 1 budget split.
	var split dp.BudgetSplit
	switch spec.Mode {
	case ModeTight:
		split, err = dp.SplitTight(opts.Epsilon, outputDims)
	case ModeLoose:
		split, err = dp.SplitLoose(opts.Epsilon, outputDims)
	case ModeHelper:
		split, err = dp.SplitHelper(opts.Epsilon, inputDims, outputDims)
	}
	if err != nil {
		return nil, err
	}

	// Resolve the ranges known before block execution. For ModeLoose the
	// effective range is estimated later from block outputs; until then the
	// analyst's loose range bounds the substitute value.
	var preRanges []dp.Range
	switch spec.Mode {
	case ModeTight, ModeLoose:
		preRanges = append([]dp.Range(nil), spec.Output...)
	case ModeHelper:
		input := spec.Input
		if input == nil {
			return nil, fmt.Errorf("%w: %s requires input ranges (from the spec or the dataset)", ErrRangeSpec, spec.Mode)
		}
		preRanges, err = estimateHelperRanges(rangeRNG, rows, spec, input, split.RangeEps, outputDims)
		if err != nil {
			return nil, err
		}
	}

	// The substitute released for killed or misbehaving blocks: the
	// midpoint of each known range — constant and data-independent.
	substitute := make(mathutil.Vec, outputDims)
	for d, r := range preRanges {
		substitute[d] = r.Mid()
	}
	partSpan.End(telemetry.StatusOK)

	blockSpan := opts.Trace.StartSpan(telemetry.StageBlocks)
	outputs, failed, err := runBlocks(ctx, program, rows, part, substitute, opts)
	if err != nil {
		status := telemetry.StatusError
		if errors.Is(err, context.DeadlineExceeded) {
			status = telemetry.StatusTimeout
		}
		blockSpan.End(status)
		return nil, err
	}
	if opts.MaxFailFrac > 0 && float64(failed) > opts.MaxFailFrac*float64(part.NumBlocks()) {
		blockSpan.End(telemetry.StatusError)
		return nil, fmt.Errorf("%w: %d of %d blocks substituted (limit %.0f%%)",
			ErrTooManyFailures, failed, part.NumBlocks(), opts.MaxFailFrac*100)
	}
	blockSpan.End(telemetry.StatusOK)

	aggSpan := opts.Trace.StartSpan(telemetry.StageAggregation)
	defer aggSpan.End(telemetry.StatusError)

	// ModeLoose: tighten the output range privately from the block outputs.
	effective := preRanges
	if spec.Mode == ModeLoose {
		effective, err = estimateLooseRanges(rangeRNG, outputs, spec, split.RangeEps, part.Gamma)
		if err != nil {
			return nil, err
		}
	}

	// Clamp and average (Algorithm 1 lines 5–6), one contiguous column per
	// output dimension. SumClamped accumulates in block order, so the
	// result is bit-identical to the per-element scalar loop it replaced.
	avgs := make(mathutil.Vec, outputDims)
	for d := 0; d < outputDims; d++ {
		r := effective[d]
		avgs[d] = mathutil.SumClamped(outputs.col(d), r.Lo, r.Hi) / float64(outputs.n)
	}
	aggSpan.End(telemetry.StatusOK)

	noiseSpan := opts.Trace.StartSpan(telemetry.StageNoising)
	defer noiseSpan.End(telemetry.StatusError)

	// Per-dimension Laplace noise (Algorithm 1 lines 7–8, with the §4.2
	// resampling-aware sensitivity), drawn as one batch under a single
	// generator lock. The draw stream matches per-dimension scalar calls
	// exactly, so seeds reproduce historical outputs.
	sens := make([]float64, outputDims)
	for d := 0; d < outputDims; d++ {
		sens[d] = part.Sensitivity(effective[d].Width())
	}
	final, err := dp.LaplaceVec(noiseRNG, avgs, sens, split.AggregateEps)
	if err != nil {
		return nil, err
	}
	noiseSpan.End(telemetry.StatusOK)

	return &Result{
		Output:          final,
		Mode:            spec.Mode,
		EffectiveRanges: effective,
		EpsilonSpent:    opts.Epsilon,
		NumBlocks:       part.NumBlocks(),
		BlockSize:       part.BlockSize,
		Gamma:           part.Gamma,
		FailedBlocks:    failed,
	}, nil
}

// runBlocks executes the program on every block through isolation chambers,
// bounded by opts.Parallelism. A block that fails in any way (killed,
// crashed, hung past its deadline, program error, wrong output arity,
// non-finite values) contributes the substitute vector, so the release
// pipeline sees a complete, well-formed matrix of block outputs. Only
// cancellation of the caller's context aborts the run.
func runBlocks(ctx context.Context, program analytics.Program, rows []mathutil.Vec, part *Partition, substitute mathutil.Vec, opts Options) (*blockMatrix, int, error) {
	// engine substitutes itself, to count failures
	pol := sandbox.Policy{Quantum: opts.Quantum, Metrics: opts.Metrics}
	chamber := opts.NewChamber(program, pol)

	// Chambers that take a block index (the distributed pool) get it for
	// consistent block→worker assignment; the index never affects results —
	// block outputs are keyed by index in the output matrix regardless.
	blockChamber, _ := chamber.(sandbox.BlockChamber)
	// Chambers declaring they neither mutate nor retain the block get
	// zero-copy views of the shared rows and make the one private copy (or
	// wire encoding) themselves; any other chamber gets a private flat copy
	// here, because rows may be the registered table itself.
	zeroCopy := false
	if ro, ok := chamber.(sandbox.ReadOnlyChamber); ok {
		zeroCopy = ro.ReadOnlyBlocks()
	}

	// Block-outcome counters and the occupancy gauge. All nil-safe: with
	// opts.Metrics nil each event costs one branch.
	blocksOK := opts.Metrics.Counter("engine.blocks_ok")
	blocksSubstituted := opts.Metrics.Counter("engine.blocks_substituted")
	blocksTimedOut := opts.Metrics.Counter("engine.blocks_timed_out")
	inflight := opts.Metrics.Gauge("engine.blocks_inflight")

	outputs := newBlockMatrix(part.NumBlocks(), len(substitute))
	written := make([]bool, part.NumBlocks())
	// One slot per concurrent block, each carrying the view-header scratch
	// its blocks gather into: a chamber is done with the headers when it
	// returns, so the next block on the slot overwrites them.
	slots := make(chan []mathutil.Vec, opts.Parallelism)
	for i := 0; i < opts.Parallelism; i++ {
		slots <- nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	var ctxErr error

	for i := range part.Blocks {
		// A cancelled query must not wait out a running (quantum-padded)
		// block just to learn it has nothing left to start.
		var scratch []mathutil.Vec
		select {
		case scratch = <-slots:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { slots <- scratch }()
			// Per-block deadline: a wedged chamber (hung worker socket,
			// stuck subprocess) fails just this block, never the query.
			bctx := ctx
			cancel := func() {}
			if opts.BlockTimeout > 0 {
				bctx, cancel = context.WithTimeout(ctx, opts.BlockTimeout)
			}
			scratch = part.viewInto(scratch, rows, i)
			block := scratch
			if !zeroCopy {
				block = mathutil.CloneRows(scratch)
			}
			inflight.Inc()
			var out mathutil.Vec
			var err error
			if blockChamber != nil {
				out, err = blockChamber.ExecuteBlock(bctx, i, block)
			} else {
				out, err = chamber.Execute(bctx, block)
			}
			inflight.Dec()
			if err != nil && bctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
				// The per-block deadline expired while the parent context was
				// still live: this block timed out (and will be substituted).
				blocksTimedOut.Inc()
			}
			cancel()
			if err != nil && ctx.Err() != nil {
				// The caller's context ended; the whole run aborts. A
				// block-deadline expiry alone never takes this path — the
				// parent context is still live there.
				mu.Lock()
				ctxErr = ctx.Err()
				mu.Unlock()
				return
			}
			if err != nil || !wellFormedOutput(out, len(substitute)) {
				mu.Lock()
				failed++
				mu.Unlock()
				blocksSubstituted.Inc()
				out = substitute
			} else {
				blocksOK.Inc()
			}
			outputs.setRow(i, out)
			written[i] = true
		}(i)
	}
	wg.Wait()
	if ctxErr != nil {
		return nil, 0, ctxErr
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// Blocks skipped by an early break (can only happen on cancellation,
	// already returned above) would be unwritten; guard anyway.
	for i, ok := range written {
		if !ok {
			outputs.setRow(i, substitute)
			failed++
			blocksSubstituted.Inc()
		}
	}
	return outputs, failed, nil
}

// wellFormedOutput accepts only outputs the aggregator can safely consume:
// correct arity, every value finite. NaN would poison the block average
// straight through clamping (NaN comparisons are all false), and ±Inf is
// indistinguishable from a smuggling attempt, so both are substituted.
func wellFormedOutput(out mathutil.Vec, dims int) bool {
	if len(out) != dims {
		return false
	}
	for _, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func dpCheckEpsilon(eps float64) error {
	if !(eps > 0) {
		return fmt.Errorf("%w: got %v", dp.ErrInvalidEpsilon, eps)
	}
	return nil
}
