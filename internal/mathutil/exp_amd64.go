package mathutil

// expVector sets dst[i] to math.Exp(src[i]) four elements at a time, from
// i = 0, while every argument of the next four lies in [-707, 709], and
// returns how many elements it set: a multiple of 4, at most len(src). dst
// must be at least as long as src.
//
//go:noescape
func expVector(dst, src []float64) int

// cpuHasAVXFMA reports whether the CPU has AVX and FMA and the OS saves the
// YMM registers: the CPU half of the condition math.Exp's FMA path runs on.
func cpuHasAVXFMA() bool
