package mathutil

import (
	"math"
	"testing"
)

// expInputs returns 2^20 arguments covering every class math.Exp treats
// apart: NaNs with several payloads, ±Inf, signed zeros, subnormals, both
// edges of the vector window and their neighbours, the overflow threshold,
// arguments whose result is subnormal or underflows to 0, random bit
// patterns, and the −|z| arguments a logistic regression feeds it. Special
// values sit at every lane position of a group of four.
func expInputs() []float64 {
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		-707, math.Nextafter(-707, math.Inf(-1)), math.Nextafter(-707, 0),
		709, math.Nextafter(709, math.Inf(1)), math.Nextafter(709, 0),
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 0), 710, 1e300, math.MaxFloat64,
		-708, -709.5, -744.44, -745.1332191019411, -745.2, -1e300, -math.MaxFloat64,
		1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2, 1e-300, -1e-300,
	}
	rng := NewRNG(47)
	xs := make([]float64, 1<<20)
	for i := range xs {
		switch i % 8 {
		case 0:
			xs[i] = specials[(i/8)%len(specials)]
		case 1:
			xs[i] = math.Float64frombits(uint64(rng.Int63())<<1 ^ uint64(rng.Int63()))
		case 2:
			xs[i] = (2*rng.Float64() - 1) * 760
		case 3:
			xs[i] = -math.Abs(rng.NormFloat64() * 4)
		default:
			xs[i] = (2*rng.Float64() - 1) * 707
		}
	}
	return xs
}

// ExpInto must set math.Exp's bits, NaN payloads included, through the
// vector path (where this CPU has it) and through the math.Exp fallback
// alone, at every length from 0 to 11 and on the whole input set, in place
// and into a separate slice.
func TestExpIntoMatchesMathExp(t *testing.T) {
	xs := expInputs()
	paths := []bool{false}
	if useExpVector {
		paths = append(paths, true)
	} else {
		t.Log("no vector path on this CPU or GODEBUG: checking the fallback only")
	}
	defer func(v bool) { useExpVector = v }(useExpVector)
	for _, vector := range paths {
		useExpVector = vector
		check := func(what string, src, got []float64) {
			t.Helper()
			for i, x := range src {
				if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("vector=%v %s: Exp(%v) [bits %#x] = %v [%#x], math.Exp %v [%#x]",
						vector, what, x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
		for n := 0; n <= 11; n++ {
			for off := 0; off+n <= 4096; off += 97 {
				src := xs[off : off+n]
				dst := make([]float64, n+1)
				ExpInto(dst, src)
				check("short", src, dst)
			}
		}
		dst := make([]float64, len(xs))
		ExpInto(dst, xs)
		check("all", xs, dst)
		inPlace := append([]float64(nil), xs...)
		ExpInto(inPlace, inPlace)
		check("in place", xs, inPlace)
	}
}

// The vector loop itself sets every element of a run of whole groups inside
// the window (so the test above exercises it and not only the fallback), and
// stops at the first group with one argument outside, whatever its lane.
func TestExpVectorStopsAtWindow(t *testing.T) {
	if !useExpVector {
		t.Skip("no vector path on this CPU or GODEBUG")
	}
	src := make([]float64, 64)
	for i := range src {
		src[i] = -707 + float64(i)*(1416.0/63)
	}
	src[63] = 709
	dst := make([]float64, len(src))
	if n := expVector(dst, src[:63]); n != 60 {
		t.Fatalf("63 arguments in the window: vector loop set %d, want 60", n)
	}
	if n := expVector(dst, src); n != 64 {
		t.Fatalf("64 arguments in the window: vector loop set %d, want 64", n)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(-707, math.Inf(-1)), math.Nextafter(709, math.Inf(1))} {
		for lane := 0; lane < 4; lane++ {
			in := append([]float64(nil), src...)
			in[40+lane] = bad
			if n := expVector(dst, in); n != 40 {
				t.Errorf("%v in lane %d of group 10: vector loop set %d elements, want 40", bad, lane, n)
			}
		}
	}
}

// The vector path follows the runtime's GODEBUG switches for AVX and FMA,
// which take math.Exp off its FMA path.
func TestGodebugKeepsFMA(t *testing.T) {
	for env, want := range map[string]bool{
		"":                             true,
		"gctrace=1":                    true,
		"cpu.fma=off":                  false,
		"gctrace=1,cpu.avx=off":        false,
		"cpu.all=off":                  false,
		"cpu.all=off,cpu.all=on":       true,
		"cpu.fma=off,cpu.fma=on":       true,
		"cpu.all=off,cpu.avx=on":       false,
		"cpu.avx2=off,cpu.avx512f=off": true,
	} {
		if got := godebugKeepsFMA(env); got != want {
			t.Errorf("godebugKeepsFMA(%q) = %v, want %v", env, got, want)
		}
	}
}
