package core

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"gupt/internal/analytics"
	"gupt/internal/dp"
	"gupt/internal/sandbox"
)

// Plan is one run's public facts, settled before any row is read: the
// program, its range spec, the options with every default filled in, the
// table's shape (N rows of Width attributes) and the block count ℓ.
// NewPlan makes every check Run makes on public inputs, so a caller that
// plans before it charges refuses them at zero ε.
type Plan struct {
	Program   analytics.Program
	Spec      RangeSpec
	Options   Options
	N, Width  int
	NumBlocks int
}

// NewPlan checks a run over an n-row, width-column table and settles its
// defaults: β = n^0.6, γ = 1, P = GOMAXPROCS and in-process chambers. Its
// errors depend only on its arguments; it does not allocate on success.
func NewPlan(program analytics.Program, n, width int, spec RangeSpec, opts Options) (Plan, error) {
	if program == nil {
		return Plan{}, errors.New("core: nil program")
	}
	if opts.UserLevel && spec.Mode == ModeHelper {
		return Plan{}, ErrUserLevelHelper
	}
	if opts.BlockSize == 0 {
		opts.BlockSize = DefaultBlockSize(n)
	}
	if opts.Gamma == 0 {
		opts.Gamma = 1
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.NewChamber == nil {
		opts.NewChamber = func(prog analytics.Program, pol sandbox.Policy) sandbox.Chamber {
			return &sandbox.InProcess{Program: prog, Policy: pol}
		}
	}
	outputDims := program.OutputDims()
	if outputDims <= 0 {
		return Plan{}, fmt.Errorf("core: program %q declares %d output dims", program.Name(), outputDims)
	}
	if err := spec.validate(width, outputDims); err != nil {
		return Plan{}, err
	}
	if opts.UserLevel {
		if err := checkColumn(opts.UserColumn, width); err != nil {
			return Plan{}, err
		}
	}
	numBlocks, err := geometry(n, opts.BlockSize, opts.Gamma)
	if err != nil {
		return Plan{}, err
	}
	if spec.Mode == ModeHelper && spec.Input == nil {
		return Plan{}, fmt.Errorf("%w: %s requires input ranges (from the spec or the dataset)", ErrRangeSpec, spec.Mode)
	}
	p := Plan{Program: program, Spec: spec, Options: opts, N: n, Width: width, NumBlocks: numBlocks}
	if _, err := p.split(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// split is the Theorem 1 division of ε between range estimation and
// aggregation for the plan's mode.
func (p *Plan) split() (dp.BudgetSplit, error) {
	dims := p.Program.OutputDims()
	switch p.Spec.Mode {
	case ModeLoose:
		return dp.SplitLoose(p.Options.Epsilon, dims)
	case ModeHelper:
		return dp.SplitHelper(p.Options.Epsilon, p.Width, dims)
	}
	return dp.SplitTight(p.Options.Epsilon, dims)
}

// MinDuration is ⌈ℓ/P⌉·q, the least time the run can take: at most P blocks
// run at once, and each holds its slot for the full quantum (§6.2).
func (p *Plan) MinDuration() time.Duration {
	par := p.Options.Parallelism
	return time.Duration((p.NumBlocks+par-1)/par) * p.Options.Quantum
}

// geometry is the partition rule: ℓ = max(1, γ·n/β) blocks, with 1 ≤ β ≤ n
// and 1 ≤ γ ≤ ℓ (a record cannot occupy more distinct blocks than exist).
func geometry(n, blockSize, gamma int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("core: cannot partition %d rows", n)
	}
	if blockSize < 1 || blockSize > n {
		return 0, fmt.Errorf("core: block size %d out of range [1, %d]", blockSize, n)
	}
	if gamma < 1 {
		return 0, fmt.Errorf("core: resampling factor %d must be >= 1", gamma)
	}
	numBlocks := max(1, gamma*n/blockSize)
	if gamma > numBlocks {
		return 0, fmt.Errorf("core: resampling factor %d exceeds block count %d (raise n/β)", gamma, numBlocks)
	}
	return numBlocks, nil
}

// checkColumn checks that col names one of a row's width attributes.
func checkColumn(col, width int) error {
	if col < 0 || col >= width {
		return fmt.Errorf("core: group column %d out of range for %d-dim rows", col, width)
	}
	return nil
}
