package analytics

import (
	"fmt"
	"math"

	"gupt/internal/mathutil"
)

// The plain per-center and per-row loops the flat kernels replaced, kept as
// the definition of the bits KMeans.Run and LogisticRegression.Run must
// release. Each draws from a fresh NewRNG, so the comparison also checks the
// kernels' pooled generator.

func referenceKMeans(k KMeans, block []mathutil.Vec) (mathutil.Vec, error) {
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
		pts[i] = r[:k.FeatureDims:k.FeatureDims]
	}
	rng := mathutil.NewRNG(k.Seed)
	centers := referenceKMeansPlusPlus(rng, pts, k.K)
	assign := make([]int, len(pts))
	for iter := 0; iter < k.Iters; iter++ {
		for i, p := range pts {
			assign[i] = nearest(centers, p)
		}
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

func referenceKMeansPlusPlus(rng *mathutil.RNG, pts []mathutil.Vec, k int) []mathutil.Vec {
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

func referenceLogReg(l LogisticRegression, block []mathutil.Vec) (mathutil.Vec, error) {
	if len(block) == 0 {
		return nil, ErrEmptyBlock
	}
	if l.FeatureDims <= 0 || l.Iters <= 0 || l.LearnRate <= 0 {
		return nil, fmt.Errorf("analytics: logreg needs positive FeatureDims, Iters, LearnRate; got %+v", l)
	}
	if len(block[0]) <= l.LabelCol || len(block[0]) < l.FeatureDims {
		return nil, fmt.Errorf("analytics: rows have %d dims, logreg needs features %d and label col %d",
			len(block[0]), l.FeatureDims, l.LabelCol)
	}
	w := make(mathutil.Vec, l.FeatureDims)
	var b float64
	n := float64(len(block))
	grad := make(mathutil.Vec, l.FeatureDims)
	for iter := 0; iter < l.Iters; iter++ {
		for j := range grad {
			grad[j] = 0
		}
		var gradB float64
		for _, row := range block {
			x := row[:l.FeatureDims]
			y := 0.0
			if row[l.LabelCol] >= 0.5 {
				y = 1
			}
			err := Sigmoid(w.Dot(x)+b) - y
			for j := range grad {
				grad[j] += err * x[j]
			}
			gradB += err
		}
		for j := range w {
			w[j] -= l.LearnRate * (grad[j]/n + l.L2*w[j])
			if l.L1 > 0 {
				w[j] = softThreshold(w[j], l.LearnRate*l.L1)
			}
		}
		b -= l.LearnRate * gradB / n
	}
	return append(w, b), nil
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// counting every NaN as one value. Which NaN payload survives a + b when
// both are NaN depends on the operand order the compiler picks for a
// commutative instruction, so payloads are not a property of the source;
// and the engine substitutes any non-finite block output, so no payload
// reaches a release.
func sameBits(a, b mathutil.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}
