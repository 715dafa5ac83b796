package analytics

import "gupt/internal/mathutil"

// The four-lane kernels of k-means's sweeps (kmeans_amd64.s). Each lane
// repeats the Go loop's operations in its order, and nothing is fused.

// seedRoundAVX is seedRound's measuring and noting of the points
// i < len(weights) &^ 3 against center, center c: their distances, summed
// as dist2 sums, and note's bookkeeping. block must be at least as long as
// weights, lower and labels at least as long as it, and center not empty.
//
//go:noescape
func seedRoundAVX(block []mathutil.Vec, center []float64, c int, weights, lower []float64, labels []int)

// ownDistsAVX sets dists[i] = dist2(block[i][:f], centers[a·f:(a+1)·f]),
// with a = labels[i], for every i = open[t] with t < len(open) &^ 3. f must
// be positive.
//
//go:noescape
func ownDistsAVX(dists []float64, block []mathutil.Vec, open, labels []int, centers []float64, f int)

// nearestAVX runs nearestTwo for every point i = open[t] against the k
// centers laid out feature-major in centersT, f rows of k rounded up to four
// (centersT), and sets near[t], upper[i] and lower[i] to its three results.
// near must be at least as long as open, and k and f positive.
//
//go:noescape
func nearestAVX(near, open []int, block []mathutil.Vec, centersT []float64, k, f int, upper, lower []float64)

// resumAVX adds block[i][:f] to sums[c·f:(c+1)·f] for every i in block
// order whose cluster c = labels[i] is changed. labels must be at least as
// long as block, and f positive.
//
//go:noescape
func resumAVX(sums []float64, block []mathutil.Vec, labels []int, changed []bool, f int)
