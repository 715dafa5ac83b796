package analytics

import (
	"fmt"
	"math"
	"sort"

	"gupt/internal/mathutil"
)

// KMeans is Lloyd's algorithm with k-means++ seeding, run for a fixed
// number of iterations on the first FeatureDims columns of each record.
// Its output is the K cluster centers, flattened after sorting by first
// coordinate — the canonical ordering the paper applies so that centers
// from different blocks average meaningfully (§8, "Ordering of multiple
// outputs").
type KMeans struct {
	K           int
	FeatureDims int // number of leading columns to cluster on
	Iters       int
	Seed        int64
}

// Name implements Program.
func (k KMeans) Name() string {
	return fmt.Sprintf("kmeans(k=%d,iters=%d)", k.K, k.Iters)
}

// OutputDims implements Program.
func (k KMeans) OutputDims() int { return k.K * k.FeatureDims }

// Run implements Program.
func (k KMeans) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	if len(block) == 0 {
		return nil, ErrEmptyBlock
	}
	if k.K <= 0 || k.Iters <= 0 || k.FeatureDims <= 0 {
		return nil, fmt.Errorf("analytics: kmeans needs positive K, Iters, FeatureDims; got %+v", k)
	}
	if len(block[0]) < k.FeatureDims {
		return nil, fmt.Errorf("analytics: rows have %d dims, kmeans needs %d", len(block[0]), k.FeatureDims)
	}
	pts := make([]mathutil.Vec, len(block))
	for i, r := range block {
		// The block is already this run's private copy and is only read
		// below; the cut capacity keeps an append out of the label columns.
		pts[i] = r[:k.FeatureDims:k.FeatureDims]
	}
	rng := mathutil.NewRNG(k.Seed)
	centers := kmeansPlusPlus(rng, pts, k.K)
	assign := make([]int, len(pts))
	for iter := 0; iter < k.Iters; iter++ {
		// Assignment step.
		for i, p := range pts {
			assign[i] = nearest(centers, p)
		}
		// Update step.
		counts := make([]int, k.K)
		sums := make([]mathutil.Vec, k.K)
		for c := range sums {
			sums[c] = make(mathutil.Vec, k.FeatureDims)
		}
		for i, p := range pts {
			c := assign[i]
			counts[c]++
			sums[c].AddInPlace(p)
		}
		for c := range centers {
			if counts[c] == 0 {
				// Empty cluster: reseed to a random point so K is preserved.
				centers[c] = pts[rng.Intn(len(pts))].Clone()
				continue
			}
			centers[c] = sums[c].Scale(1 / float64(counts[c]))
		}
	}
	SortCenters(centers)
	out := make(mathutil.Vec, 0, k.K*k.FeatureDims)
	for _, c := range centers {
		out = append(out, c...)
	}
	return out, nil
}

// kmeansPlusPlus seeds k centers: the first uniformly, each subsequent one
// with probability proportional to squared distance from the nearest chosen
// center.
func kmeansPlusPlus(rng *mathutil.RNG, pts []mathutil.Vec, k int) []mathutil.Vec {
	centers := make([]mathutil.Vec, 0, k)
	centers = append(centers, pts[rng.Intn(len(pts))].Clone())
	d2 := make([]float64, len(pts))
	for len(centers) < k {
		for i, p := range pts {
			d2[i] = p.Dist2(centers[nearest(centers, p)])
		}
		centers = append(centers, pts[rng.Categorical(d2)].Clone())
	}
	return centers
}

func nearest(centers []mathutil.Vec, p mathutil.Vec) int {
	best, bestIdx := math.Inf(1), 0
	for c, center := range centers {
		if d := p.Dist2(center); d < best {
			best, bestIdx = d, c
		}
	}
	return bestIdx
}

// SortCenters orders centers lexicographically (first coordinate, then
// subsequent ones), in place. Idempotent; used to canonicalize multi-output
// programs before cross-block averaging.
func SortCenters(centers []mathutil.Vec) {
	sort.Slice(centers, func(i, j int) bool {
		a, b := centers[i], centers[j]
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
}

// UnflattenCenters splits a flattened center vector back into k centers of
// the given dimensionality.
func UnflattenCenters(flat mathutil.Vec, k, dims int) ([]mathutil.Vec, error) {
	if len(flat) != k*dims {
		return nil, fmt.Errorf("analytics: flat length %d != k*dims %d", len(flat), k*dims)
	}
	out := make([]mathutil.Vec, k)
	for c := 0; c < k; c++ {
		out[c] = flat[c*dims : (c+1)*dims].Clone()
	}
	return out, nil
}

// IntraClusterVariance is the paper's Fig. 4 metric:
// (1/n)·Σ_i Σ_{x∈C_i} |x − c_i|², assigning each point to its nearest
// center. Points use the first len(centers[0]) columns of each record.
func IntraClusterVariance(rows []mathutil.Vec, centers []mathutil.Vec) float64 {
	if len(rows) == 0 || len(centers) == 0 {
		return 0
	}
	dims := len(centers[0])
	var total float64
	for _, r := range rows {
		p := r[:dims]
		total += p.Dist2(centers[nearest(centers, p)])
	}
	return total / float64(len(rows))
}
