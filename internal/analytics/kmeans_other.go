//go:build !amd64

package analytics

import "gupt/internal/mathutil"

// Only amd64 has k-means's four-lane kernels; the gate is off everywhere
// else (logreg_other.go), so none of these is called.

func seedRoundAVX(block []mathutil.Vec, center []float64, c int, weights, lower []float64, labels []int) {
	panic(noKernels)
}

func ownDistsAVX(dists []float64, block []mathutil.Vec, open, labels []int, centers []float64, f int) {
	panic(noKernels)
}

func nearestAVX(near, open []int, block []mathutil.Vec, centersT []float64, k, f int, upper, lower []float64) {
	panic(noKernels)
}

func resumAVX(sums []float64, block []mathutil.Vec, labels []int, changed []bool, f int) {
	panic(noKernels)
}
