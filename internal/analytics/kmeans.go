package analytics

import (
	"fmt"
	"math"
	"sort"

	"gupt/internal/mathutil"
)

// KMeans is Lloyd's algorithm with k-means++ seeding, run for at most Iters
// iterations on the first FeatureDims columns of each record. It stops at
// the first iteration that leaves every center bit for bit where it was and
// reseeds no empty cluster: every later iteration would repeat it exactly,
// so the output is that of all Iters iterations, and the block's runtime
// depends on how fast it converges (SECURITY.md, "Timing side channel").
// Its output is the K cluster centers, flattened after sorting by first
// coordinate — the canonical ordering the paper applies so that centers
// from different blocks average meaningfully (§8, "Ordering of multiple
// outputs").
type KMeans struct {
	K           int
	FeatureDims int // number of leading columns to cluster on
	Iters       int // at most this many Lloyd iterations
	Seed        int64
}

// Name implements Program.
func (k KMeans) Name() string {
	return fmt.Sprintf("kmeans(k=%d,iters=%d)", k.K, k.Iters)
}

// OutputDims implements Program.
func (k KMeans) OutputDims() int { return k.K * k.FeatureDims }

// Run implements Program.
//
// The kernel keeps the K centers in one flat K·F slice and its scratch is
// allocated once per call. Each float operation happens in the order of the
// plain per-center loop (Vec.Dist2, nearest, AddInPlace, Scale), so the
// released bits are that loop's run for all Iters iterations, even when the
// kernel stops at a fixed point first (TestKernelsMatchReference). k-means++
// makes one distance pass per new center, K−1 in all, where the plain loop
// remeasures every earlier center in each round. The block is this run's
// private copy and is only read.
func (k KMeans) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	out, _, err := k.run(block)
	return out, err
}

// run is Run, also returning how many Lloyd iterations it executed.
func (k KMeans) run(block []mathutil.Vec) (mathutil.Vec, int, error) {
	if len(block) == 0 {
		return nil, 0, ErrEmptyBlock
	}
	if k.K <= 0 || k.Iters <= 0 || k.FeatureDims <= 0 {
		return nil, 0, fmt.Errorf("analytics: kmeans needs positive K, Iters, FeatureDims; got %+v", k)
	}
	if len(block[0]) < k.FeatureDims {
		return nil, 0, fmt.Errorf("analytics: rows have %d dims, kmeans needs %d", len(block[0]), k.FeatureDims)
	}
	n, f := len(block), k.FeatureDims
	rng := mathutil.GetRNG(k.Seed)
	defer rng.Release()

	// k-means++ seeding: the first center uniformly, each later one with
	// probability proportional to the squared distance from the nearest
	// center chosen so far. d2[i] is point i's distance to the center
	// nearest picks among those chosen so far, so round m measures center
	// m−1 alone: a strictly smaller distance takes over, and while every
	// distance so far is +Inf or NaN nearest picks center 0 and d2[i] keeps
	// its distance — d2[i] is non-finite exactly then.
	centers := make([]float64, k.K*f)
	copy(centers, block[rng.Intn(n)][:f])
	d2 := make([]float64, n)
	for m := 1; m < k.K; m++ {
		c := centers[(m-1)*f : m*f]
		for i, r := range block {
			var s float64
			for j, x := range r[:f] {
				d := x - c[j]
				s += d * d
			}
			if m == 1 || s < d2[i] || (d2[i] != d2[i] && s < math.Inf(1)) {
				d2[i] = s
			}
		}
		copy(centers[m*f:(m+1)*f], block[rng.Categorical(d2)][:f])
	}

	sums := make([]float64, k.K*f)
	counts := make([]int, k.K)
	iters := 0
	for moved := true; moved && iters < k.Iters; iters++ {
		moved = false
		// Assignment and accumulation in one pass: the centers do not move
		// until every point is assigned, and each center's sum still adds
		// its points in block order.
		clear(sums)
		clear(counts)
		for _, r := range block {
			p := r[:f]
			c := nearestFlat(centers, p)
			counts[c]++
			s := sums[c*f : (c+1)*f]
			for j, x := range p {
				s[j] += x
			}
		}
		// An iteration is a pure function of the centers, the block and the
		// generator's state. One that changes none of them — no center
		// coordinate gets new bits, no reseed draws — hands the next
		// iteration its own inputs, so the loop ends there.
		for c, cnt := range counts {
			center := centers[c*f : (c+1)*f]
			if cnt == 0 {
				// Empty cluster: reseed to a random point so K is preserved.
				// The draw advances the generator, so it counts as a move
				// even when the point is where the center already was.
				copy(center, block[rng.Intn(n)][:f])
				moved = true
				continue
			}
			inv := 1 / float64(cnt)
			for j, s := range sums[c*f : (c+1)*f] {
				if v := s * inv; math.Float64bits(v) != math.Float64bits(center[j]) {
					center[j] = v
					moved = true
				}
			}
		}
	}

	sorted := make([]mathutil.Vec, k.K)
	for c := range sorted {
		sorted[c] = centers[c*f : (c+1)*f]
	}
	SortCenters(sorted)
	out := sums[:0] // the sums are spent; their storage becomes the output
	for _, c := range sorted {
		out = append(out, c...)
	}
	return out, iters, nil
}

// nearestFlat returns the index of the center in the flat slice centers
// nearest p. It decides exactly as nearest does — the first center strictly
// closer than every one before it, center 0 when none is closer than +Inf —
// but runs four centers' distance chains side by side, each summing
// (p[i]−c[i])² in index order like Vec.Dist2.
func nearestFlat(centers, p []float64) int {
	f := len(p)
	k := len(centers) / f
	best, bestIdx := math.Inf(1), 0
	c := 0
	for ; c+4 <= k; c += 4 {
		c0 := centers[c*f:][:f]
		c1 := centers[(c+1)*f:][:f]
		c2 := centers[(c+2)*f:][:f]
		c3 := centers[(c+3)*f:][:f]
		var s0, s1, s2, s3 float64
		for i, x := range p {
			d0 := x - c0[i]
			s0 += d0 * d0
			d1 := x - c1[i]
			s1 += d1 * d1
			d2 := x - c2[i]
			s2 += d2 * d2
			d3 := x - c3[i]
			s3 += d3 * d3
		}
		if s0 < best {
			best, bestIdx = s0, c
		}
		if s1 < best {
			best, bestIdx = s1, c+1
		}
		if s2 < best {
			best, bestIdx = s2, c+2
		}
		if s3 < best {
			best, bestIdx = s3, c+3
		}
	}
	for ; c < k; c++ {
		cc := centers[c*f:][:f]
		var s float64
		for i, x := range p {
			d := x - cc[i]
			s += d * d
		}
		if s < best {
			best, bestIdx = s, c
		}
	}
	return bestIdx
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
