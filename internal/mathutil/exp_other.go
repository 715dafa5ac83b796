//go:build !amd64

package mathutil

// expVector sets nothing: only amd64 has a vector path, and ExpInto falls
// back to math.Exp for every element.
func expVector(dst, src []float64) int { return 0 }

func cpuHasAVXFMA() bool { return false }
