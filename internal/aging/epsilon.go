package aging

import (
	"errors"
	"fmt"
	"math"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// AccuracyGoal expresses the analyst's utility target in their own terms
// (paper §5.1): "the output should be within a factor Rho of the true
// value, with probability Confidence". Rho = 0.9 means a relative error of
// at most 10%.
type AccuracyGoal struct {
	Rho        float64 // target accuracy factor in (0, 1)
	Confidence float64 // 1 − δ, in (0, 1)
}

// Validate checks the goal's parameters.
func (g AccuracyGoal) Validate() error {
	if !(g.Rho > 0 && g.Rho < 1) {
		return fmt.Errorf("aging: accuracy factor Rho must be in (0,1), got %v", g.Rho)
	}
	if !(g.Confidence > 0 && g.Confidence < 1) {
		return fmt.Errorf("aging: Confidence must be in (0,1), got %v", g.Confidence)
	}
	return nil
}

// Delta returns δ = 1 − Confidence.
func (g AccuracyGoal) Delta() float64 { return 1 - g.Confidence }

// EpsilonEstimate is the outcome of translating an accuracy goal into a
// privacy budget.
type EpsilonEstimate struct {
	// Epsilon is the total budget the query should be charged.
	Epsilon float64
	// PermittedStd is the output standard deviation σ implied by the goal
	// via Chebyshev's inequality.
	PermittedStd float64
	// EstimationVar is the C term of Eq. 3 measured on the aged sample: the
	// variance of the block-mean estimator.
	EstimationVar float64
	// BlockSize is the β the estimate was computed for.
	BlockSize int
}

// EstimateEpsilon solves the paper's Eq. 3 for ε: find the smallest privacy
// budget such that estimation variance plus Laplace variance stays within
// the σ² implied by the accuracy goal.
//
// Given the aged sample:
//
//	σ  = √δ · |1−ρ| · |f(T^np)|            (per output dimension)
//	C  = Var_blocks(f) / ℓ                 (estimation variance of the mean)
//	D  = 2·s²/(ε_d²·ℓ²)                    (Laplace variance at ε_d per dim)
//
// and C + D = σ² gives ε_d = √2·s / (ℓ·√(σ²−C)). The returned total is
// p·max_d ε_d so the uniform Theorem-1 split meets the goal on every
// dimension. ErrInfeasibleAccuracy is returned when C ≥ σ² on some
// dimension — no amount of budget can reach the goal at this block size.
func EstimateEpsilon(program analytics.Program, aged []mathutil.Vec, n, beta int, ranges []dp.Range, goal AccuracyGoal) (EpsilonEstimate, error) {
	if len(aged) == 0 {
		return EpsilonEstimate{}, ErrNoAgedData
	}
	if err := goal.Validate(); err != nil {
		return EpsilonEstimate{}, err
	}
	if program == nil {
		return EpsilonEstimate{}, errors.New("aging: nil program")
	}
	p := program.OutputDims()
	if len(ranges) != p {
		return EpsilonEstimate{}, fmt.Errorf("aging: %d ranges for %d output dims", len(ranges), p)
	}
	if n <= 0 || beta < 1 || beta > n {
		return EpsilonEstimate{}, fmt.Errorf("aging: invalid n=%d beta=%d", n, beta)
	}

	full, err := program.Run(mathutil.CloneRows(aged))
	if err != nil {
		return EpsilonEstimate{}, fmt.Errorf("aging: program failed on aged data: %w", err)
	}
	outs, err := BlockOutputs(program, aged, beta)
	if err != nil {
		return EpsilonEstimate{}, err
	}

	ell := float64(n) / float64(beta) // block count of the real run
	delta := goal.Delta()

	var epsMax, sigmaMin, cMax float64
	sigmaMin = math.Inf(1)
	col := make([]float64, len(outs))
	for d := 0; d < p; d++ {
		sigma := math.Sqrt(delta) * math.Abs(1-goal.Rho) * math.Abs(full[d])
		if sigma <= 0 {
			return EpsilonEstimate{}, fmt.Errorf("%w: dimension %d has zero reference value", ErrInfeasibleAccuracy, d)
		}
		for i, o := range outs {
			col[i] = o[d]
		}
		c := mathutil.Variance(col) / ell
		if c >= sigma*sigma {
			return EpsilonEstimate{}, fmt.Errorf("%w: estimation variance %v >= permitted %v on dim %d",
				ErrInfeasibleAccuracy, c, sigma*sigma, d)
		}
		epsD := math.Sqrt2 * ranges[d].Width() / (ell * math.Sqrt(sigma*sigma-c))
		if epsD > epsMax {
			epsMax = epsD
		}
		if sigma < sigmaMin {
			sigmaMin = sigma
		}
		if c > cMax {
			cMax = c
		}
	}

	return EpsilonEstimate{
		Epsilon:       epsMax * float64(p),
		PermittedStd:  sigmaMin,
		EstimationVar: cMax,
		BlockSize:     beta,
	}, nil
}
