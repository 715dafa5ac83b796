package core

import (
	"fmt"
	"slices"
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
//
// Each group contributes at most blockSize rows: a larger one keeps its first
// blockSize rows in table order (lowest indices) and its other rows take part
// in no block. The bound looks only at the group's own rows, so it holds at
// user level; refusing a large group instead would tell the analyst, after
// the charge, that some user owns more than blockSize rows. Every error below
// depends only on n, blockSize, gamma and the shape of groups (which
// GroupRowsByColumn always builds well-formed), and names no group and no
// row count.
func MakeGroupedPartition(rng *mathutil.RNG, n int, groups [][]int, blockSize, gamma int) (*Partition, error) {
	numBlocks, err := geometry(n, blockSize, gamma)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, n)
	total := 0
	for _, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("core: a group is empty")
		}
		for _, r := range g {
			if r < 0 || r >= n {
				return nil, fmt.Errorf("core: a group references a row outside [0, %d)", n)
			}
			if seen[r] {
				return nil, fmt.Errorf("core: a row appears in more than one group")
			}
			seen[r] = true
			total++
		}
	}
	if total != n {
		return nil, fmt.Errorf("core: the groups do not cover all %d rows", n)
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
		if len(g) > blockSize {
			g = slices.Clone(g)
			slices.Sort(g)
			g = g[:blockSize]
		}
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
// partition is deterministic given the RNG; each lists its rows in table
// order. Rows whose identifier is NaN, which equals no value, form one group
// ahead of the others: whose rows they are is unknown, so they are bounded
// together. Its errors depend only on the table's shape.
func GroupRowsByColumn(rows mathutil.Matrix, col int) ([][]int, error) {
	if rows.Len() == 0 {
		return nil, fmt.Errorf("core: no rows to group")
	}
	w := rows.Width()
	if err := checkColumn(col, w); err != nil {
		return nil, err
	}
	byKey := make(map[float64][]int)
	var unknown []int
	cells := rows.Cells()
	for i := 0; i < rows.Len(); i++ {
		k := cells[i*w+col]
		if k != k {
			unknown = append(unknown, i)
			continue
		}
		byKey[k] = append(byKey[k], i)
	}
	keys := make([]float64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	groups := make([][]int, 0, len(keys)+1)
	if unknown != nil {
		groups = append(groups, unknown)
	}
	for _, k := range keys {
		groups = append(groups, byKey[k])
	}
	return groups, nil
}
