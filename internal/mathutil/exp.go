package mathutil

import (
	"math"
	"os"
	"strings"
)

// useExpVector is set when expVector computes math.Exp's own bits: on amd64
// when math.Exp itself takes its FMA path, which the runtime decides once
// from the CPU and GODEBUG.
var useExpVector = cpuHasAVXFMA() && godebugKeepsFMA(os.Getenv("GODEBUG"))

// ExpInto sets dst[i] to math.Exp(src[i]) for every i of src, bit for bit.
// dst must be at least as long as src, and may be src itself.
//
// Where math.Exp takes its FMA path (amd64 with AVX and FMA), four lanes at a
// time repeat that path instruction for instruction. A group of four holding
// NaN, ±Inf or an argument outside [-707, 709], the last len(src) mod 4
// elements, and every other platform go through math.Exp.
func ExpInto(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if useExpVector {
		for {
			i += expVector(dst[i:], src[i:])
			if len(src)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = math.Exp(src[i])
			}
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

// godebugKeepsFMA reports whether a GODEBUG value leaves the runtime's AVX
// and FMA detection on. cpu.avx=off, cpu.fma=off and cpu.all=off move
// math.Exp off its FMA path for the whole process; the last setting of each
// wins, as in the runtime.
func godebugKeepsFMA(env string) bool {
	avx, fma := true, true
	for _, field := range strings.Split(env, ",") {
		switch field {
		case "cpu.all=off", "cpu.all=on":
			avx, fma = field == "cpu.all=on", field == "cpu.all=on"
		case "cpu.avx=off", "cpu.avx=on":
			avx = field == "cpu.avx=on"
		case "cpu.fma=off", "cpu.fma=on":
			fma = field == "cpu.fma=on"
		}
	}
	return avx && fma
}
