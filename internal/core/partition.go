// Package core implements GUPT's primary contribution: the extended
// sample-and-aggregate framework (SAF) of the paper's Algorithm 1, with the
// two accuracy improvements of §4 — resampling (each record placed in γ
// blocks, Claim 1) and tunable block size — plus the three output-range
// estimation modes of §4.1 (GUPT-tight, GUPT-loose, GUPT-helper) and the
// Theorem-1 privacy budget splits.
//
// The engine treats the analysis program as a black box: it partitions the
// dataset, runs the program on every block inside an isolated execution
// chamber, clamps each block's output to the (possibly privately estimated)
// output range, averages across blocks, and releases the average plus
// Laplace noise calibrated so the whole release is ε-differentially
// private.
package core

import (
	"fmt"
	"math"
	"sync"

	"gupt/internal/mathutil"
)

// DefaultBlockSizeExponent is the paper's default: blocks of size n^0.6
// (equivalently ℓ = n^0.4 blocks), from Smith's original analysis.
const DefaultBlockSizeExponent = 0.6

// DefaultBlockSize returns round(n^0.6), the paper's default block size.
func DefaultBlockSize(n int) int {
	if n <= 0 {
		return 0
	}
	b := int(math.Round(math.Pow(float64(n), DefaultBlockSizeExponent)))
	if b < 1 {
		b = 1
	}
	if b > n {
		b = n
	}
	return b
}

// Partition holds the block structure of one SAF run: Blocks[i] lists the
// row indices making up block i. With resampling factor γ > 1 every row
// index appears in exactly γ distinct blocks (paper §4.2); with γ = 1 the
// blocks are a disjoint cover of all rows.
type Partition struct {
	Blocks [][]int
	// BlockSize is the nominal block size β used for noise calibration.
	BlockSize int
	// Gamma is the resampling factor γ (≥ 1).
	Gamma int
	// N is the number of dataset rows partitioned.
	N int
	// perm is the recycled permutation a γ = 1 partition's Blocks alias.
	perm *[]int
}

// permPool recycles γ = 1 permutations (n ints per query) between runs.
var permPool = sync.Pool{New: func() any { return new([]int) }}

// release gives the partition's permutation back for the next run to draw
// into; the partition and every view of it are dead afterwards. Optional: a
// partition that is never released is simply collected.
func (p *Partition) release() {
	if p.perm != nil {
		permPool.Put(p.perm)
		p.perm, p.Blocks = nil, nil
	}
}

// NumBlocks returns ℓ, the number of blocks.
func (p *Partition) NumBlocks() int { return len(p.Blocks) }

// MakePartition builds the block structure for n rows with nominal block
// size β and resampling factor γ, following §4.2: ℓ = γ·n/β bins of
// capacity ~β, each record placed uniformly into γ distinct bins that are
// not yet full. γ = 1 reduces to Algorithm 1's disjoint partition.
//
// Requirements: 1 ≤ β ≤ n and 1 ≤ γ ≤ ℓ (a record cannot occupy more
// distinct blocks than exist).
func MakePartition(rng *mathutil.RNG, n, blockSize, gamma int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: cannot partition %d rows", n)
	}
	if blockSize < 1 || blockSize > n {
		return nil, fmt.Errorf("core: block size %d out of range [1, %d]", blockSize, n)
	}
	if gamma < 1 {
		return nil, fmt.Errorf("core: resampling factor %d must be >= 1", gamma)
	}
	numBlocks := gamma * n / blockSize
	if numBlocks < 1 {
		numBlocks = 1
	}
	if gamma > numBlocks {
		return nil, fmt.Errorf("core: resampling factor %d exceeds block count %d (raise n/β)", gamma, numBlocks)
	}

	// γ = 1 is Algorithm 1's plain partition: a shuffled permutation cut
	// into ℓ contiguous chunks. This is exactly balanced (sizes differ by
	// at most one) and can never produce an empty block — important because
	// an empty block would be substituted by the range midpoint and bias
	// the aggregate.
	if gamma == 1 {
		recycled := permPool.Get().(*[]int)
		if cap(*recycled) < n {
			*recycled = make([]int, n)
		}
		perm := (*recycled)[:n]
		rng.PermInto(perm)
		blocks := make([][]int, numBlocks)
		base, extra := n/numBlocks, n%numBlocks
		pos := 0
		for b := range blocks {
			size := base
			if b < extra {
				size++
			}
			// Blocks alias the permutation (capacity cut so an append
			// cannot run into the next block) instead of re-copying it.
			blocks[b] = perm[pos : pos+size : pos+size]
			pos += size
		}
		return &Partition{Blocks: blocks, BlockSize: blockSize, Gamma: 1, N: n, perm: recycled}, nil
	}

	blocks := make([][]int, numBlocks)
	// Capacity ceil(γn/ℓ) keeps bins balanced; the few overflow slots from
	// rounding are absorbed by the relaxation below.
	capacity := (gamma*n + numBlocks - 1) / numBlocks
	sizes := make([]int, numBlocks)

	// notFull lists indices of bins with remaining capacity.
	notFull := make([]int, numBlocks)
	for i := range notFull {
		notFull[i] = i
	}

	scratch := make([]int, 0, gamma)
	for row := 0; row < n; row++ {
		scratch = scratch[:0]
		if len(notFull) >= gamma {
			// Partial Fisher–Yates: draw γ distinct bins from the not-full
			// set, exactly the paper's "randomly placed into γ bins that
			// are not full".
			for j := 0; j < gamma; j++ {
				k := j + rng.Intn(len(notFull)-j)
				notFull[j], notFull[k] = notFull[k], notFull[j]
				scratch = append(scratch, notFull[j])
			}
		} else {
			// Tail relaxation: fewer than γ bins still have room (possible
			// only in the last few rows because of rounding). Take every
			// not-full bin, then top up with the least-loaded full bins so
			// the record still lands in γ distinct blocks.
			scratch = append(scratch, notFull...)
			for len(scratch) < gamma {
				best, bestLoad := -1, math.MaxInt
				for b := 0; b < numBlocks; b++ {
					if containsInt(scratch, b) {
						continue
					}
					if sizes[b] < bestLoad {
						best, bestLoad = b, sizes[b]
					}
				}
				scratch = append(scratch, best)
			}
		}
		for _, b := range scratch {
			blocks[b] = append(blocks[b], row)
			sizes[b]++
		}
		// Drop bins that just filled from the not-full set.
		for i := 0; i < len(notFull); {
			if sizes[notFull[i]] >= capacity {
				notFull[i] = notFull[len(notFull)-1]
				notFull = notFull[:len(notFull)-1]
			} else {
				i++
			}
		}
	}

	// Random placement can leave a bin empty when capacities are small
	// (the slack between ℓ·capacity and γn). Steal one record from the
	// currently largest bin for each empty one; the recipient is empty, so
	// the exactly-γ-distinct-blocks invariant trivially holds.
	for b := range blocks {
		if len(blocks[b]) > 0 {
			continue
		}
		largest := 0
		for i := range blocks {
			if len(blocks[i]) > len(blocks[largest]) {
				largest = i
			}
		}
		if len(blocks[largest]) <= 1 {
			continue // nothing to steal; cannot happen with n >= numBlocks
		}
		donor := blocks[largest]
		blocks[b] = append(blocks[b], donor[len(donor)-1])
		blocks[largest] = donor[:len(donor)-1]
	}

	return &Partition{Blocks: blocks, BlockSize: blockSize, Gamma: gamma, N: n}, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Sensitivity returns the L1 sensitivity of the block-output average for a
// single output dimension with the given clamped output width: a record
// appears in γ blocks, each block's clamped output can move by at most
// width, and the average divides by ℓ — so γ·width/ℓ, which equals
// β·width/n when ℓ = γn/β exactly (the Lap(β·|max−min|/(n·ε)) of §4.2).
func (p *Partition) Sensitivity(width float64) float64 {
	return float64(p.Gamma) * width / float64(p.NumBlocks())
}

// View returns the rows of block i aliasing rows directly — one slice
// header allocation, zero row copies. Only hand views to chambers that
// declare sandbox.ReadOnlyChamber: a mutating consumer would corrupt the
// dataset for every other block sharing those rows (γ > 1) and for every
// later query.
func (p *Partition) View(rows []mathutil.Vec, i int) []mathutil.Vec {
	return p.viewInto(nil, rows, i)
}

// viewInto is View gathering into buf's storage, which it grows only when
// block i is larger than any block buf held before.
func (p *Partition) viewInto(buf, rows []mathutil.Vec, i int) []mathutil.Vec {
	idx := p.Blocks[i]
	if cap(buf) < len(idx) {
		buf = make([]mathutil.Vec, len(idx))
	}
	buf = buf[:len(idx)]
	for j, r := range idx {
		buf[j] = rows[r]
	}
	return buf
}
