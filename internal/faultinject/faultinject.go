// Package faultinject is a deterministic, seedable fault-injection layer
// for exercising GUPT's failure paths (paper §6). The platform's security
// argument leans on what happens when a computation *misbehaves*: killed or
// crashed chambers must be replaced by data-independent range-midpoint
// substitutes without leaking state, and privacy budget must be charged
// even when a query aborts — otherwise an analyst mounts a privacy-budget
// attack by forcing failures. Those paths are only reachable by accident in
// normal operation; this package makes them reachable on purpose.
//
// Two injection surfaces mirror the two untrusted boundaries:
//
//   - Chamber wraps any sandbox.Chamber and injects compute-level faults:
//     crash before or after the program runs, hang past the deadline,
//     garbage (non-finite) output, out-of-range output, wrong output
//     arity, and slow starts.
//   - Proxy sits on the wire between a compman.WorkerPool and a worker
//     daemon and injects protocol-level faults into reply frames: corrupted
//     frames, truncated frames, stalled replies, and mid-session disconnects.
//
// All injection decisions derive from a Schedule seeded explicitly, so a
// fault pattern that breaks an invariant reproduces exactly from its seed.
package faultinject

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
)

// Kind enumerates the compute-level faults a Chamber can inject.
type Kind int

const (
	// None leaves the execution untouched.
	None Kind = iota
	// CrashBefore fails the execution before the program runs — the
	// chamber process died on startup.
	CrashBefore
	// CrashAfter runs the program, discards its output, and fails — the
	// chamber process died after computing but before reporting.
	CrashAfter
	// Hang blocks until the context is cancelled (or the schedule's
	// HangFor cap elapses) — a wedged computation that never returns.
	Hang
	// Garbage returns a vector of non-finite values (NaN, ±Inf) of the
	// correct arity — memory corruption or a hostile program.
	Garbage
	// OutOfRange returns finite values far outside any plausible output
	// range — an outlier-smuggling program; the aggregator must clamp.
	OutOfRange
	// WrongArity returns a vector of the wrong width.
	WrongArity
	// SlowStart delays the execution by the schedule's SlowBy, then runs
	// it normally — cold caches, contended nodes.
	SlowStart
	numKinds int = iota
)

// String names the fault for logs and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case CrashBefore:
		return "crash-before"
	case CrashAfter:
		return "crash-after"
	case Hang:
		return "hang"
	case Garbage:
		return "garbage"
	case OutOfRange:
		return "out-of-range"
	case WrongArity:
		return "wrong-arity"
	case SlowStart:
		return "slow-start"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the error returned by injected crashes, so consumers (and
// tests) can tell injected failures from organic ones.
var ErrInjected = fmt.Errorf("faultinject: injected fault")

// Schedule decides which fault, if any, each successive execution suffers.
// Decisions are a deterministic function of the seed and the call sequence:
// with single-threaded callers the n-th execution always draws the same
// fault for the same seed. It is safe for concurrent use (decisions stay
// deterministic as a multiset; per-call attribution then depends on
// scheduling order).
type Schedule struct {
	// Seed drives every injection decision.
	Seed int64
	// Rates maps each fault kind to its per-execution probability. Kinds
	// absent from the map are never injected randomly. Ignored when Plan
	// is set.
	Rates map[Kind]float64
	// Plan, when non-empty, scripts faults explicitly: execution i suffers
	// Plan[i % len(Plan)]. Use it for table-driven tests that need one
	// specific fault on one specific block.
	Plan []Kind
	// HangFor caps how long a Hang fault blocks when the context has no
	// deadline of its own; zero selects 30s (a backstop so a missing
	// engine deadline turns into a slow test, not a deadlocked one).
	HangFor time.Duration
	// SlowBy is the delay a SlowStart fault adds; zero selects 10ms.
	SlowBy time.Duration

	draws draws[Kind]
}

// next draws the fault for the next execution.
func (s *Schedule) next() Kind { return s.draws.next(s.Seed, s.Rates, s.Plan, numKinds) }

// Counts reports how many times each fault kind has been injected,
// including None for untouched executions.
func (s *Schedule) Counts() map[Kind]int { return s.draws.counts() }

// draws is the decision machinery Schedule and ProtoSchedule share: call i
// takes plan[i % len(plan)] when a plan is set, and otherwise one uniform
// draw from seed's stream, laid over the positive rates in kind order (kind
// 0 is the no-fault kind), so map iteration order never influences which
// fault a draw selects. Decisions are counted per kind.
type draws[K ~int] struct {
	mu    sync.Mutex
	rng   *mathutil.RNG
	calls int
	n     map[K]int
}

func (d *draws[K]) next(seed int64, rates map[K]float64, plan []K, numKinds int) K {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := d.calls
	d.calls++
	var k K
	if len(plan) > 0 {
		k = plan[i%len(plan)]
	} else {
		if d.rng == nil {
			d.rng = mathutil.NewRNG(seed)
		}
		u := d.rng.Float64()
		for kind := K(1); int(kind) < numKinds; kind++ {
			rate := rates[kind]
			if !(rate > 0) {
				continue
			}
			if u < rate {
				k = kind
				break
			}
			u -= rate
		}
	}
	if d.n == nil {
		d.n = make(map[K]int)
	}
	d.n[k]++
	return k
}

func (d *draws[K]) counts() map[K]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[K]int, len(d.n))
	for k, c := range d.n {
		out[k] = c
	}
	return out
}

func (s *Schedule) hangFor() time.Duration {
	if s.HangFor > 0 {
		return s.HangFor
	}
	return 30 * time.Second
}

func (s *Schedule) slowBy() time.Duration {
	if s.SlowBy > 0 {
		return s.SlowBy
	}
	return 10 * time.Millisecond
}

// Chamber wraps an inner sandbox.Chamber and injects the faults its
// Schedule dictates. The wrapped chamber is what the engine's substitution
// and deadline machinery must survive; the inner chamber still runs for
// kinds that need a real output (CrashAfter, SlowStart).
type Chamber struct {
	// Inner is the chamber faults are injected around. Required.
	Inner sandbox.Chamber
	// Schedule drives the injection decisions. Required.
	Schedule *Schedule
	// OutputDims is the output arity the Garbage and OutOfRange faults
	// forge (WrongArity forges OutputDims+1). Required for those kinds.
	OutputDims int
}

// Execute implements sandbox.Chamber.
func (c *Chamber) Execute(ctx context.Context, block []mathutil.Vec) (mathutil.Vec, error) {
	return c.execute(ctx, func(ctx context.Context) (mathutil.Vec, error) {
		return c.Inner.Execute(ctx, block)
	})
}

// ExecuteRows implements sandbox.RowChamber by delegation through
// sandbox.Rows: the fault chamber itself only forges outputs, errors and
// delays and never touches the rows, so an inner RowChamber (the
// distributed pool keeps its block→worker assignment) reads them in place,
// and any other inner chamber gets a private copy of each block.
func (c *Chamber) ExecuteRows(ctx context.Context, block int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error) {
	return c.execute(ctx, func(ctx context.Context) (mathutil.Vec, error) {
		return sandbox.Rows(c.Inner).ExecuteRows(ctx, block, rows, idx)
	})
}

// execute injects the scheduled fault around one inner run.
func (c *Chamber) execute(ctx context.Context, inner func(context.Context) (mathutil.Vec, error)) (mathutil.Vec, error) {
	switch k := c.Schedule.next(); k {
	case None:
		return inner(ctx)
	case CrashBefore:
		return nil, fmt.Errorf("%w: %s", ErrInjected, k)
	case CrashAfter:
		// Run the real computation first so the crash happens after data
		// was touched — the worst case for state leakage.
		_, _ = inner(ctx)
		return nil, fmt.Errorf("%w: %s", ErrInjected, k)
	case Hang:
		t := time.NewTimer(c.Schedule.hangFor())
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
			return nil, fmt.Errorf("%w: %s expired", ErrInjected, k)
		}
	case Garbage:
		out := make(mathutil.Vec, c.OutputDims)
		for i := range out {
			switch i % 3 {
			case 0:
				out[i] = math.NaN()
			case 1:
				out[i] = math.Inf(1)
			default:
				out[i] = math.Inf(-1)
			}
		}
		return out, nil
	case OutOfRange:
		out := make(mathutil.Vec, c.OutputDims)
		for i := range out {
			out[i] = 1e12
			if i%2 == 1 {
				out[i] = -1e12
			}
		}
		return out, nil
	case WrongArity:
		return make(mathutil.Vec, c.OutputDims+1), nil
	case SlowStart:
		t := time.NewTimer(c.Schedule.slowBy())
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
		return inner(ctx)
	default:
		return nil, fmt.Errorf("%w: unknown kind %v", ErrInjected, k)
	}
}
