package analytics

import (
	"fmt"
	"math"

	"gupt/internal/mathutil"
)

// parentKMeans and parentNearestFlat are KMeans.run and its nearest-center
// search as they were before the kernel learned to skip points whose center
// cannot change (distance bounds, labels from the seeding, re-sums of the
// changed clusters only), copied verbatim but for their names and for the
// re-sum's add, which is addFirst as in the kernel so that the NaN a sum
// keeps does not depend on how the build orders the operands. They run
// every distance of every iteration, so FuzzKMeansMatchesParent holds the
// pruned kernel to their output bits and iteration counts.

func parentKMeans(k KMeans, block []mathutil.Vec) (mathutil.Vec, int, error) {
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
			c := parentNearestFlat(centers, p)
			counts[c]++
			s := sums[c*f : (c+1)*f]
			for j, x := range p {
				s[j] = addFirst(s[j], x)
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

// parentNearestFlat returns the index of the center in the flat slice centers
// nearest p. It decides exactly as nearest does — the first center strictly
// closer than every one before it, center 0 when none is closer than +Inf —
// but runs four centers' distance chains side by side, each summing
// (p[i]−c[i])² in index order like Vec.Dist2.
func parentNearestFlat(centers, p []float64) int {
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
