package core

import (
	"fmt"
	"sort"

	"gupt/internal/mathutil"
)

// User-level privacy (paper §8.1): when several records belong to the same
// user, record-level differential privacy under-protects — a user's whole
// record set must be treated as the unit of privacy. GUPT's block structure
// extends naturally: place *all* of a user's records in the same block
// (γ of them under resampling), and the familiar sensitivity argument goes
// through with the user as the atom — changing one user perturbs at most γ
// clamped block outputs, so the Laplace scale γ·range/(ℓ·ε) is unchanged.
// The paper lists this as future work; it is implemented here as an
// extension.

// MakeGroupedPartition builds a partition of n rows in which every group
// (e.g. all records of one user) lands intact in exactly gamma distinct
// blocks. groups lists row indices per group; every row must appear in
// exactly one group. blockSize is the target records per block; the block
// count is γ·n/β as usual, but actual block sizes vary with group sizes.
// No group may exceed the target block size.
func MakeGroupedPartition(rng *mathutil.RNG, n int, groups [][]int, blockSize, gamma int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: cannot partition %d rows", n)
	}
	if blockSize < 1 || blockSize > n {
		return nil, fmt.Errorf("core: block size %d out of range [1, %d]", blockSize, n)
	}
	if gamma < 1 {
		return nil, fmt.Errorf("core: resampling factor %d must be >= 1", gamma)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("core: no groups")
	}
	seen := make([]bool, n)
	total := 0
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("core: group %d is empty", gi)
		}
		if len(g) > blockSize {
			return nil, fmt.Errorf("core: group %d has %d records, exceeding block size %d — raise the block size so one user fits in one block",
				gi, len(g), blockSize)
		}
		for _, r := range g {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("core: group %d references row %d outside [0, %d)", gi, r, n)
			}
			if seen[r] {
				return nil, fmt.Errorf("core: row %d appears in multiple groups", r)
			}
			seen[r] = true
			total++
		}
	}
	if total != n {
		return nil, fmt.Errorf("core: groups cover %d of %d rows", total, n)
	}

	numBlocks := gamma * n / blockSize
	if numBlocks < 1 {
		numBlocks = 1
	}
	if gamma > numBlocks {
		return nil, fmt.Errorf("core: resampling factor %d exceeds block count %d", gamma, numBlocks)
	}

	// Greedy balanced assignment: visit groups in random order (largest
	// tie-broken by the shuffle), placing each into the γ least-loaded
	// blocks that do not already hold it. Load is measured in records.
	order := rng.Perm(len(groups))
	blocks := make([][]int, numBlocks)
	loads := make([]int, numBlocks)
	type blockLoad struct{ idx, load int }
	for _, gi := range order {
		g := groups[gi]
		// Rank blocks by load; take the gamma lightest.
		ranked := make([]blockLoad, numBlocks)
		for b := range ranked {
			ranked[b] = blockLoad{idx: b, load: loads[b]}
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].load != ranked[j].load {
				return ranked[i].load < ranked[j].load
			}
			return ranked[i].idx < ranked[j].idx
		})
		for c := 0; c < gamma; c++ {
			b := ranked[c].idx
			blocks[b] = append(blocks[b], g...)
			loads[b] += len(g)
		}
	}

	return &Partition{Blocks: blocks, BlockSize: blockSize, Gamma: gamma, N: n}, nil
}

// GroupRowsByColumn buckets row indices by the (exact float64) value of the
// given column — the common case where a user identifier is stored as a
// numeric column. Groups are returned in ascending key order so the
// partition is deterministic given the RNG.
func GroupRowsByColumn(rows mathutil.Matrix, col int) ([][]int, error) {
	if rows.Len() == 0 {
		return nil, fmt.Errorf("core: no rows to group")
	}
	w := rows.Width()
	if col < 0 || col >= w {
		return nil, fmt.Errorf("core: group column %d out of range for %d-dim rows", col, w)
	}
	byKey := make(map[float64][]int)
	cells := rows.Cells()
	for i := 0; i < rows.Len(); i++ {
		k := cells[i*w+col]
		byKey[k] = append(byKey[k], i)
	}
	keys := make([]float64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	groups := make([][]int, len(keys))
	for i, k := range keys {
		groups[i] = byKey[k]
	}
	return groups, nil
}
