//go:build !amd64

package analytics

// Only amd64 has the four-lane kernels; the gate (mathutil.VectorKernels)
// is off everywhere else, so the Go loops run and none of these is called.

const noKernels = "analytics: no four-lane kernels on this platform"

func dotsAVX(u, w, cells []float64, n int) { panic(noKernels) }

func gradsAVX(grad, x, err *float64, pairs, stride, groups, pad1, pad2, pad3 int) {
	panic(noKernels)
}

func negAbsAVX(dst, src []float64) { panic(noKernels) }

func logisticErrsAVX(u, e, y []float64) { panic(noKernels) }
