package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
	// Parallelism is the number of workers that run the query's blocks, so
	// no more than this many blocks execute at once; 0 selects GOMAXPROCS.
	// A run with fewer blocks starts one worker per block.
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
	// NewChamber builds the isolation chamber used for block executions;
	// nil selects an in-process chamber. The hosted platform injects a
	// subprocess chamber here.
	NewChamber func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber
	// UserLevel switches the privacy unit from records to users: all rows
	// sharing the value of UserColumn are placed in the same block(s), so
	// the ε guarantee covers a user's entire record set (paper §8.1,
	// implemented as an extension — see MakeGroupedPartition). A user with
	// more than BlockSize rows contributes its first BlockSize of them.
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

// Rows is what Run reads its records from: a table's Matrix, which Run
// reads in place, or a slice of rows, which must all have one width and
// which Run flattens into a Matrix once per call.
type Rows interface {
	[]mathutil.Vec | mathutil.Matrix
}

// ErrUserLevelHelper refuses helper-mode ranges under user-level privacy
// (NewPlan returns it): the helper's percentile estimate ranks single rows
// at RangeEps each, so a user with k rows would spend k·RangeEps.
var ErrUserLevelHelper = fmt.Errorf("%w: helper ranges are not available under user-level privacy", ErrRangeSpec)

// Run executes program over rows under the sample-and-aggregate framework
// and returns an Options.Epsilon-differentially private result: NewPlan,
// then Execute. It does not touch any budget ledger — callers (the
// computation manager) charge the dataset's accountant before invoking Run.
func Run[R Rows](ctx context.Context, program analytics.Program, rows R, spec RangeSpec, opts Options) (*Result, error) {
	m, ok := any(rows).(mathutil.Matrix)
	if !ok {
		var err error
		if m, err = mathutil.FlattenRows(any(rows).([]mathutil.Vec)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	p, err := NewPlan(program, m.Len(), m.Width(), spec, opts)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, m)
}

// Execute runs the plan over rows, which must have the shape it was planned
// for. Failed blocks are substituted; what can still fail is the caller's
// context and what the rows decide (a helper translation's output).
func (p *Plan) Execute(ctx context.Context, rows mathutil.Matrix) (*Result, error) {
	if rows.Len() != p.N || rows.Width() != p.Width {
		return nil, fmt.Errorf("core: plan for %d×%d rows run on %d×%d", p.N, p.Width, rows.Len(), rows.Width())
	}
	program, spec, opts, n := p.Program, p.Spec, p.Options, p.N
	outputDims := program.OutputDims()
	split, err := p.split()
	if err != nil {
		return nil, err
	}

	c := p.newCoins()
	defer c.release()

	// Span pattern: End keeps only its first call, so the deferred error
	// status fires only when an early return skips the explicit ok.
	partSpan := opts.Trace.StartSpan(telemetry.StagePartition)
	defer partSpan.End(telemetry.StatusError)

	var part *Partition
	if opts.UserLevel {
		groups, gerr := GroupRowsByColumn(rows, opts.UserColumn)
		if gerr != nil {
			return nil, gerr
		}
		part, err = MakeGroupedPartition(c.partition, n, groups, opts.BlockSize, opts.Gamma)
	} else {
		part, err = MakePartition(c.partition, n, opts.BlockSize, opts.Gamma)
	}
	if err != nil {
		return nil, err
	}
	// Every goroutine that reads the partition has ended by the time Run
	// returns (runBlocks waits for its own; chambers copy what they keep).
	defer part.release()

	// Resolve the ranges known before block execution. For ModeLoose the
	// effective range is estimated later from block outputs; until then the
	// analyst's loose range bounds the substitute value.
	var preRanges []dp.Range
	switch spec.Mode {
	case ModeTight, ModeLoose:
		preRanges = append([]dp.Range(nil), spec.Output...)
	case ModeHelper:
		preRanges, err = estimateHelperRanges(c.ranges, rows, spec, spec.Input, split.RangeEps, outputDims)
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
	blockSpan.End(telemetry.StatusOK)

	aggSpan := opts.Trace.StartSpan(telemetry.StageAggregation)
	defer aggSpan.End(telemetry.StatusError)

	// ModeLoose: tighten the output range privately from the block outputs.
	effective := preRanges
	if spec.Mode == ModeLoose {
		effective, err = estimateLooseRanges(c.ranges, outputs, spec, split.RangeEps, part.Gamma)
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
	final, err := dp.LaplaceVec(c.noise, avgs, sens, split.AggregateEps)
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
// on min(opts.Parallelism, ℓ) workers that each claim the next unrun block
// index until none is left. A block's output is stored under its index, so
// which worker ran it never shows in the result. A block that fails in any
// way (killed, crashed, hung past its deadline, program error, wrong output
// arity, non-finite values) contributes the substitute vector, so the
// release pipeline sees a complete, well-formed matrix of block outputs.
// Only cancellation of the caller's context aborts the run.
func runBlocks(ctx context.Context, program analytics.Program, rows mathutil.Matrix, part *Partition, substitute mathutil.Vec, opts Options) (*blockMatrix, int, error) {
	// Chambers report failures as errors; substitution happens below, the
	// one place it happens, so every failed block is counted.
	pol := sandbox.Policy{Quantum: opts.Quantum, Metrics: opts.Metrics}
	// Every chamber gets the shared table and the block's index list, and
	// makes the one private copy (or wire encoding) itself, reading each row
	// from the table's cells by stride. A chamber that makes no promise
	// about the rows it is handed gets a fresh copy of each block from
	// sandbox.Rows instead, because rows may be the registered table
	// itself. The block index is routing metadata (the distributed pool's
	// block→worker assignment); block outputs are keyed by index in the
	// output matrix regardless.
	chamber := sandbox.Rows(opts.NewChamber(program, pol))

	// Block-outcome counters and the occupancy gauge. All nil-safe: with
	// opts.Metrics nil each event costs one branch.
	blocksOK := opts.Metrics.Counter("engine.blocks_ok")
	blocksSubstituted := opts.Metrics.Counter("engine.blocks_substituted")
	blocksTimedOut := opts.Metrics.Counter("engine.blocks_timed_out")
	inflight := opts.Metrics.Gauge("engine.blocks_inflight")

	nb := part.NumBlocks()
	outputs := newBlockMatrix(nb, len(substitute))
	written := make([]bool, nb)
	var mu sync.Mutex
	failed := 0
	var ctxErr error

	// runBlock executes block i on the calling worker and records its
	// outcome.
	runBlock := func(i int) {
		// Per-block deadline: a wedged chamber (hung worker socket,
		// stuck subprocess) fails just this block, never the query.
		bctx := ctx
		if opts.BlockTimeout > 0 {
			var cancel context.CancelFunc
			bctx, cancel = context.WithTimeout(ctx, opts.BlockTimeout)
			defer cancel()
		}
		inflight.Inc()
		defer inflight.Dec()
		out, err := chamber.ExecuteRows(bctx, i, rows, part.Blocks[i])
		if err != nil && bctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			// The per-block deadline expired while the parent context was
			// still live: this block timed out (and will be substituted).
			blocksTimedOut.Inc()
		}
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
	}

	// Each worker claims the next block index until none is left. It checks
	// the context before every claim, so a cancelled query starts no further
	// block, though it still waits for the ones already running.
	var next atomic.Int64
	var wg sync.WaitGroup
	var work func()
	work = func() {
		defer wg.Done()
		ended := false
		defer func() {
			if !ended {
				// A chamber ended this goroutine mid-block (a program run in
				// place called runtime.Goexit): that block stays unwritten
				// and is substituted below, and a new worker takes this one's
				// place for the blocks still unclaimed.
				wg.Add(1)
				go work()
			}
		}()
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= nb {
				break
			}
			runBlock(i)
		}
		ended = true
	}
	workers := min(opts.Parallelism, nb)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if ctxErr != nil {
		return nil, 0, ctxErr
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// A block is unwritten only when its worker's goroutine ended inside
	// the chamber, or when cancellation stopped the claims (already
	// returned above): it is substituted like any other failed block.
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
