// Package aging implements GUPT's aging-of-sensitivity model (paper §3.3)
// and the two optimizers built on it:
//
//   - OptimizeBlockSize (§4.3): pick the block size β that minimizes the
//     empirical error — estimation error plus Laplace noise — measured on
//     an aged, no-longer-private sample of the data distribution.
//   - EstimateEpsilon (§5.1): translate an analyst's accuracy goal ("within
//     a factor ρ of the true value, with probability 1−δ") into the
//     smallest privacy budget ε that achieves it, again calibrated on the
//     aged sample.
//
// Both computations touch only aged data, so they consume no privacy
// budget (the paper's simplifying model: the aged fraction has fully aged
// out; see §3.3 for the weakly-private variant).
package aging

import (
	"errors"
	"fmt"
	"math"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// ErrNoAgedData is returned when an optimizer is invoked without an aged
// sample.
var ErrNoAgedData = errors.New("aging: no aged data available")

// ErrInfeasibleAccuracy is returned by EstimateEpsilon when the requested
// accuracy cannot be met at any ε because the estimation error alone
// already exceeds the allowed variance.
var ErrInfeasibleAccuracy = errors.New("aging: accuracy goal infeasible at this block size")

// BlockSizeChoice reports the optimizer's decision and the error model
// behind it.
type BlockSizeChoice struct {
	// BlockSize is the chosen β.
	BlockSize int
	// Alpha is the corresponding exponent (ℓ = n^Alpha blocks).
	Alpha float64
	// EstimationErr is the A term of Eq. 2 at the chosen β: the empirical
	// |block-mean − full| gap on the aged sample, averaged over output
	// dimensions.
	EstimationErr float64
	// NoiseErr is the B term of Eq. 2 at the chosen β: the expected
	// magnitude of the Laplace perturbation, averaged over dimensions.
	NoiseErr float64
}

// TotalErr is the Eq. 2 objective at the chosen block size.
func (c BlockSizeChoice) TotalErr() float64 { return c.EstimationErr + c.NoiseErr }

// OptimizeBlockSize searches for the block size minimizing Eq. 2:
//
//	| (1/ℓnp)·Σ f(T_i^np) − f(T^np) |  +  √2·s/(ε·n^α)
//
// evaluated on the aged rows, where n is the size of the private dataset
// the query will actually run on, eps is the query's aggregation budget and
// ranges are the per-dimension output ranges (s = range width). The search
// walks a grid of α values in [1 − log(n_np)/log n, 1] and then hill-climbs
// on β (the paper suggests exactly such a local search).
func OptimizeBlockSize(program analytics.Program, aged []mathutil.Vec, n int, eps float64, ranges []dp.Range) (BlockSizeChoice, error) {
	if len(aged) == 0 {
		return BlockSizeChoice{}, ErrNoAgedData
	}
	if program == nil {
		return BlockSizeChoice{}, errors.New("aging: nil program")
	}
	if n <= 0 {
		return BlockSizeChoice{}, fmt.Errorf("aging: private dataset size %d", n)
	}
	if !(eps > 0) {
		return BlockSizeChoice{}, fmt.Errorf("%w: got %v", dp.ErrInvalidEpsilon, eps)
	}
	p := program.OutputDims()
	if len(ranges) != p {
		return BlockSizeChoice{}, fmt.Errorf("aging: %d ranges for %d output dims", len(ranges), p)
	}

	nnp := len(aged)
	full, err := program.Run(mathutil.CloneRows(aged))
	if err != nil {
		return BlockSizeChoice{}, fmt.Errorf("aging: program failed on aged data: %w", err)
	}
	if len(full) != p {
		return BlockSizeChoice{}, fmt.Errorf("aging: program returned %d dims, declared %d", len(full), p)
	}

	logN := math.Log(float64(n))
	alphaMin := math.Max(0, 1-math.Log(float64(nnp))/logN)

	eval := newEvaluator(program, aged, n, eps, ranges, full)

	// Coarse grid over α, then refine around the best candidate by
	// hill-climbing directly on β.
	const gridPoints = 16
	best := BlockSizeChoice{BlockSize: -1}
	bestErr := math.Inf(1)
	for g := 0; g <= gridPoints; g++ {
		alpha := alphaMin + (1-alphaMin)*float64(g)/gridPoints
		beta := betaForAlpha(n, alpha, nnp)
		choice, err := eval.at(beta)
		if err != nil {
			continue // a block size the program cannot handle; skip
		}
		if choice.TotalErr() < bestErr {
			best, bestErr = choice, choice.TotalErr()
		}
	}
	if best.BlockSize < 0 {
		return BlockSizeChoice{}, errors.New("aging: program failed on every candidate block size")
	}

	// Hill climb: multiplicative neighbors until no improvement.
	for step := 0; step < 24; step++ {
		improved := false
		for _, cand := range []int{best.BlockSize - 1, best.BlockSize + 1,
			int(float64(best.BlockSize) * 0.8), int(float64(best.BlockSize) * 1.25)} {
			if cand < 1 || cand > nnp || cand == best.BlockSize {
				continue
			}
			choice, err := eval.at(cand)
			if err != nil {
				continue
			}
			if choice.TotalErr() < bestErr {
				best, bestErr = choice, choice.TotalErr()
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// evaluator caches Eq. 2 evaluations per block size.
type evaluator struct {
	program analytics.Program
	aged    []mathutil.Vec
	n       int
	eps     float64
	ranges  []dp.Range
	full    mathutil.Vec
	cache   map[int]BlockSizeChoice
	fail    map[int]bool
}

func newEvaluator(program analytics.Program, aged []mathutil.Vec, n int, eps float64, ranges []dp.Range, full mathutil.Vec) *evaluator {
	return &evaluator{
		program: program, aged: aged, n: n, eps: eps, ranges: ranges, full: full,
		cache: make(map[int]BlockSizeChoice), fail: make(map[int]bool),
	}
}

func (e *evaluator) at(beta int) (BlockSizeChoice, error) {
	if c, ok := e.cache[beta]; ok {
		return c, nil
	}
	if e.fail[beta] {
		return BlockSizeChoice{}, errors.New("aging: cached failure")
	}
	outs, err := BlockOutputs(e.program, e.aged, beta)
	if err != nil {
		e.fail[beta] = true
		return BlockSizeChoice{}, err
	}
	p := len(e.full)
	alpha := math.Log(float64(e.n)/float64(beta)) / math.Log(float64(e.n))
	nAlpha := float64(e.n) / float64(beta) // = n^alpha, the real run's block count
	perDimEps := e.eps / float64(p)

	var estErr, noiseErr float64
	for d := 0; d < p; d++ {
		var mean float64
		for _, o := range outs {
			mean += o[d]
		}
		mean /= float64(len(outs))
		estErr += math.Abs(mean - e.full[d])
		noiseErr += math.Sqrt2 * e.ranges[d].Width() / (perDimEps * nAlpha)
	}
	choice := BlockSizeChoice{
		BlockSize:     beta,
		Alpha:         alpha,
		EstimationErr: estErr / float64(p),
		NoiseErr:      noiseErr / float64(p),
	}
	e.cache[beta] = choice
	return choice, nil
}

// BlockOutputs runs the program on consecutive blocks of size beta carved
// from the aged rows, returning one output vector per block. Exported for
// reuse by EstimateEpsilon and the experiment harness.
func BlockOutputs(program analytics.Program, aged []mathutil.Vec, beta int) ([]mathutil.Vec, error) {
	nnp := len(aged)
	if beta < 1 || beta > nnp {
		return nil, fmt.Errorf("aging: block size %d out of [1, %d]", beta, nnp)
	}
	numBlocks := nnp / beta
	outs := make([]mathutil.Vec, 0, numBlocks)
	for b := 0; b < numBlocks; b++ {
		block := mathutil.CloneRows(aged[b*beta : (b+1)*beta])
		o, err := program.Run(block)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	if len(outs) == 0 {
		return nil, errors.New("aging: no complete blocks")
	}
	return outs, nil
}

func betaForAlpha(n int, alpha float64, nnp int) int {
	beta := int(math.Round(math.Pow(float64(n), 1-alpha)))
	if beta < 1 {
		beta = 1
	}
	if beta > nnp {
		beta = nnp
	}
	return beta
}
