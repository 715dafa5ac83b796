package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
	"gupt/internal/sandbox"
	"gupt/internal/telemetry"
)

// countingChamber runs the program through an in-process chamber and
// records how often each block index ran and how many blocks ran at once at
// most.
type countingChamber struct {
	inner *sandbox.InProcess
	mu    *sync.Mutex
	runs  map[int]int
	cur   *atomic.Int32
	peak  *atomic.Int32
}

func (c countingChamber) Execute(context.Context, []mathutil.Vec) (mathutil.Vec, error) {
	panic("the engine calls ExecuteRows on a RowChamber")
}

func (c countingChamber) ExecuteRows(ctx context.Context, block int, rows mathutil.Matrix, idx []int) (mathutil.Vec, error) {
	now := c.cur.Add(1)
	defer c.cur.Add(-1)
	for peak := c.peak.Load(); now > peak && !c.peak.CompareAndSwap(peak, now); peak = c.peak.Load() {
	}
	c.mu.Lock()
	c.runs[block]++
	c.mu.Unlock()
	runtime.Gosched() // let the other workers into a block meanwhile
	return c.inner.ExecuteRows(ctx, block, rows, idx)
}

// Every block index runs exactly once however many workers share the
// blocks, no more than Parallelism blocks run at once, and the released bits
// are those of a single worker.
func TestRunExecutesEveryBlockOnce(t *testing.T) {
	rows := ageRows(21, 1000)
	spec := tightSpec(dp.Range{Lo: 0, Hi: 150})
	for _, gamma := range []int{1, 2} {
		base := Options{Epsilon: 1, Seed: 5, BlockSize: 50, Gamma: gamma, Parallelism: 1}
		ref, err := Run(context.Background(), analytics.Median{Col: 0}, rows, spec, base)
		if err != nil {
			t.Fatal(err)
		}
		nb := ref.NumBlocks
		for _, par := range []int{1, 2, 3, nb, nb + 5} {
			var mu sync.Mutex
			var cur, peak atomic.Int32
			runs := map[int]int{}
			opts := base
			opts.Parallelism = par
			opts.NewChamber = func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
				return countingChamber{inner: &sandbox.InProcess{Program: prog, Policy: pol}, mu: &mu, runs: runs, cur: &cur, peak: &peak}
			}
			got, err := Run(context.Background(), analytics.Median{Col: 0}, rows, spec, opts)
			if err != nil {
				t.Fatalf("γ=%d, parallelism %d: %v", gamma, par, err)
			}
			if len(runs) != nb {
				t.Errorf("γ=%d, parallelism %d: %d distinct blocks ran, want %d", gamma, par, len(runs), nb)
			}
			for i := 0; i < nb; i++ {
				if runs[i] != 1 {
					t.Errorf("γ=%d, parallelism %d: block %d ran %d times, want once", gamma, par, i, runs[i])
				}
			}
			if p := int(peak.Load()); p > par {
				t.Errorf("γ=%d, parallelism %d: %d blocks ran at once", gamma, par, p)
			}
			if got.FailedBlocks != 0 || math.Float64bits(got.Output[0]) != math.Float64bits(ref.Output[0]) {
				t.Errorf("γ=%d, parallelism %d released %v (%d failed), one worker %v",
					gamma, par, got.Output, got.FailedBlocks, ref.Output)
			}
		}
	}
}

// A program that panics, or ends its goroutine, on one block costs exactly
// that block. With no quantum and a context that cannot be cancelled the
// in-process chamber runs the program on the engine's worker itself, so a
// Goexit ends the worker, and another must take over the blocks it had not
// claimed.
func TestRunFailingBlockCostsOnlyItself(t *testing.T) {
	const marker = -7
	rows := ageRows(22, 1000)
	rows[417] = mathutil.Vec{marker} // at γ = 1 exactly one block holds it
	spec := tightSpec(dp.Range{Lo: -10, Hi: 150})
	failures := map[string]func(){
		"panic":  func() { panic("boom") },
		"goexit": runtime.Goexit,
	}
	for name, fail := range failures {
		prog := analytics.Func{ProgName: name, Dims: 1, F: func(block []mathutil.Vec) (mathutil.Vec, error) {
			for _, r := range block {
				if r[0] == marker {
					fail()
				}
			}
			return analytics.Mean{Col: 0}.Run(block)
		}}
		for _, par := range []int{1, 2} {
			reg := telemetry.NewRegistry()
			res, err := Run(context.Background(), prog, rows, spec,
				Options{Epsilon: 1, Seed: 9, BlockSize: 50, Parallelism: par, Metrics: reg})
			if err != nil {
				t.Fatalf("%s, parallelism %d: %v", name, par, err)
			}
			if res.FailedBlocks != 1 {
				t.Errorf("%s, parallelism %d: FailedBlocks = %d, want 1", name, par, res.FailedBlocks)
			}
			if ok := reg.Counter("engine.blocks_ok").Value(); ok != int64(res.NumBlocks-1) {
				t.Errorf("%s, parallelism %d: %d of %d blocks computed, want all but one", name, par, ok, res.NumBlocks)
			}
			if sub := reg.Counter("engine.blocks_substituted").Value(); sub != 1 {
				t.Errorf("%s, parallelism %d: %d blocks substituted, want 1", name, par, sub)
			}
			if n := reg.Gauge("engine.blocks_inflight").Value(); n != 0 {
				t.Errorf("%s, parallelism %d: engine.blocks_inflight = %d after the run, want 0", name, par, n)
			}
		}
	}
}
