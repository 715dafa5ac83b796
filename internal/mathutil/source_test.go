package mathutil

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds math/rand treats specially — 0 and the
// multiples of 2³¹−1 seed as 89482311, negatives wrap, the int64 extremes
// reduce — followed by 500 drawn from a fixed generator.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 7, 42, int32max, -int32max, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	r := rand.New(rand.NewSource(2012))
	for i := 0; i < 500; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// int31n is Int31n on s through reduce31: it draws Int63()>>32 again until
// reduce31 accepts a draw, as Int31n loops until a draw is under its bound.
func int31n(s *source, n int32) int32 {
	for {
		if v := reduce31(int32(s.Int63()>>32), n); v >= 0 {
			return v
		}
	}
}

// int31nSizes are the bounds reduce31 is checked at: powers of two (the
// masked path), small and block-sized n, n just above 2³⁰ (where about half
// of all draws are rejected) and n near 2³¹−1 (where the rejection bound is
// computed for almost every draw and rarely rejects).
func int31nSizes() []int32 {
	var ns []int32
	for p := 0; p <= 30; p++ {
		ns = append(ns, 1<<p)
	}
	ns = append(ns, 3, 5, 7, 385, 1000, 20000, 715827883)
	for k := int32(1); k <= 6; k++ {
		ns = append(ns, 1<<30+k, 1<<30+1<<29+k, int32max-k+1)
	}
	return ns
}

// The source is math/rand's, bit for bit: the same 64-bit words from every
// seed, the same Int31n draws through reduce31's rule, and the same
// Intn, Perm, Float64, NormFloat64, ExpFloat64 and Shuffle through the
// rand.Rand an RNG wraps — with each stream left in the same place.
func TestSourceMatchesMathRand(t *testing.T) {
	ns := int31nSizes()
	perm := make([]int, 1001)
	for si, seed := range sourceSeeds() {
		g := NewRNG(seed)
		src := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 10000; i++ {
			if i%2 == 0 {
				if got, want := g.src.Int63(), src.Int63(); got != want {
					t.Fatalf("seed %d: Int63 draw %d = %d, math/rand gives %d", seed, i, got, want)
				}
			} else if got, want := g.src.Uint64(), src.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand gives %d", seed, i, got, want)
			}
		}

		w := rand.New(src)
		for _, n := range ns {
			for i := 0; i < 4; i++ {
				if got, want := int31n(&g.src, n), w.Int31n(n); got != want {
					t.Fatalf("seed %d: int31n(%d) = %d, Int31n gives %d", seed, n, got, want)
				}
				if got, want := g.Intn(int(n)), w.Intn(int(n)); got != want {
					t.Fatalf("seed %d: Intn(%d) = %d, math/rand gives %d", seed, n, got, want)
				}
			}
		}

		// The special seeds run every length up to 1,000; the drawn ones
		// one length each.
		lengths := []int{si % len(perm)}
		if si < 11 {
			lengths = lengths[:0]
			for n := range perm {
				lengths = append(lengths, n)
			}
		}
		for _, n := range lengths {
			g.PermInto(perm[:n])
			for i, v := range w.Perm(n) {
				if perm[i] != v {
					t.Fatalf("seed %d: PermInto(%d)[%d] = %d, Perm gives %d", seed, n, i, perm[i], v)
				}
			}
		}

		for i := 0; i < 100; i++ {
			got := [...]float64{g.Float64(), g.NormFloat64()}
			want := [...]float64{w.Float64(), w.NormFloat64()}
			if got != want {
				t.Fatalf("seed %d: Float64, NormFloat64 = %v, math/rand gives %v", seed, got, want)
			}
		}
	}
}

// scriptedSource yields fixed Int63 values, so rand.Rand's Int31n can be
// driven onto any draw.
type scriptedSource []int64

func (s *scriptedSource) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *scriptedSource) Seed(int64) {}

// reduce31 must reject exactly the draws Int31n rejects. Random streams land
// on the edges with probability 2⁻³¹ a draw, so the source's state is set
// to put each edge value v first: just below, at and just above the point
// past which the bound is computed (2³¹−1−n) and the bound itself, then an
// accepted 5. Both must return the same value and consume the same draws.
// (Moving the shortcut's point by one either way changes nothing, since the
// bound is at least 2³¹−n; moving it up by two skips a needed check.)
func TestInt31nRejectionEdges(t *testing.T) {
	for _, n := range []int32{3, 5, 7, 385, 715827883, 1<<30 + 1, 1<<30 + 3, int32max - 1, int32max} {
		shortcut := int32max - n
		bound := int32(int32max - (1<<31)%uint32(n))
		for _, v := range []int32{shortcut - 1, shortcut, shortcut + 1, shortcut + 2,
			bound - 1, bound, bound + 1, int32max} {
			if v < 0 { // bound+1 wrapped past 2³¹−1
				continue
			}
			draws := []int64{int64(v) << 32, 5 << 32, 9 << 32}
			var s source
			s.Seed(1)
			s.vec[s.feed-1], s.vec[s.tap-1+rngLen] = uint64(draws[0]), 0
			s.vec[s.feed-2], s.vec[s.tap-2+rngLen] = uint64(draws[1]), 0
			s.vec[s.feed-3], s.vec[s.tap-3+rngLen] = uint64(draws[2]), 0
			script := scriptedSource(draws)
			w := rand.New(&script)
			got, want := int31n(&s, n), w.Int31n(n)
			if gotNext, wantNext := s.Int63(), w.Int63(); got != want || gotNext != wantNext {
				t.Errorf("n=%d, first draw %d: int31n = %d then %d, Int31n = %d then %d",
					n, v, got, gotNext>>32, want, wantNext>>32)
			}
		}
	}
}

// FuzzRNGMatchesMathRand checks a seed and a bound against math/rand: the
// Int31n and Intn draws, a permutation of up to 65,535 elements, and the
// draw after them. A 65,535-element shuffle takes a rejected draw for about
// 40 % of seeds; one of 4,095, the cap before, for about 0.2 %.
func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, int32max, math.MinInt64} {
		f.Add(seed, 1000)
		f.Add(seed, 1<<30+1)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		k := int32(n & int32max)
		if k == 0 {
			k = 1
		}
		g, w := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			if got, want := int31n(&g.src, k), w.Int31n(k); got != want {
				t.Fatalf("seed %d: int31n(%d) = %d, Int31n gives %d", seed, k, got, want)
			}
			if got, want := g.Intn(int(k)), w.Intn(int(k)); got != want {
				t.Fatalf("seed %d: Intn(%d) = %d, math/rand gives %d", seed, k, got, want)
			}
		}
		m := make([]int, int(k)&65535)
		g.PermInto(m)
		for i, v := range w.Perm(len(m)) {
			if m[i] != v {
				t.Fatalf("seed %d: PermInto(%d)[%d] = %d, Perm gives %d", seed, len(m), i, m[i], v)
			}
		}
		if got, want := g.Int63(), w.Int63(); got != want {
			t.Fatalf("seed %d: next draw %d, math/rand gives %d", seed, got, want)
		}
	})
}
