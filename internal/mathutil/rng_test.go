package mathutil

import (
	"math"
	"math/rand"
	"testing"

	"gupt/internal/allocguard"
)

func TestInt63NonNegative(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if g.Int63() < 0 {
			t.Fatal("negative Int63")
		}
	}
}

// PermInto must be math/rand's Perm draw for draw, whatever the recycled
// slice held, so that seeds keep producing the partitions they always did.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 385, 20000} {
		m := make([]int, n)
		for seed := int64(0); seed < 100; seed++ {
			for i := range m {
				m[i] = -7 // stale contents of a recycled slice
			}
			NewRNG(seed).PermInto(m)
			want := rand.New(rand.NewSource(seed)).Perm(n)
			for i := range want {
				if m[i] != want[i] {
					t.Fatalf("n=%d seed=%d: PermInto[%d] = %d, rand.Perm gives %d", n, seed, i, m[i], want[i])
				}
			}
		}
	}
	// The generator is left where rand.Perm leaves it.
	g, r := NewRNG(5), rand.New(rand.NewSource(5))
	g.PermInto(make([]int, 385))
	r.Perm(385)
	if a, b := g.Int63(), r.Int63(); a != b {
		t.Errorf("next draw after PermInto = %d, after rand.Perm = %d", a, b)
	}
}

// countingSource is math/rand's source, counting the Int63 draws a
// rand.Rand takes from it.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// assertPermLikeRand fails unless PermInto over len(m) elements from seed
// gives rand.Perm's permutation and leaves the generator where rand.Perm
// leaves it, so that the next three draws agree. It returns the number of
// draws rand.Perm took.
func assertPermLikeRand(t *testing.T, seed int64, m []int) int {
	t.Helper()
	src := &countingSource{Source: rand.NewSource(seed)}
	r := rand.New(src)
	want := r.Perm(len(m))
	draws := src.draws
	g := NewRNG(seed)
	g.PermInto(m)
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("n=%d seed=%d: PermInto[%d] = %d, rand.Perm gives %d", len(m), seed, i, m[i], want[i])
		}
	}
	for k := 0; k < 3; k++ {
		if a, b := g.Int63(), r.Int63(); a != b {
			t.Fatalf("n=%d seed=%d: draw %d after PermInto = %d, after rand.Perm = %d", len(m), seed, k, a, b)
		}
	}
	return draws
}

// A shuffle of n elements takes n draws unless Int31n rejects one. At
// n = 20,000 about one seed in twenty does, so the test finds its own; at
// n = 385 about one in 50,000 does, so the seeds below were found by the
// same count over a longer scan, and each must still reject. Through the
// rejected draws PermInto must stay rand.Perm's, draw for draw.
func TestPermIntoRejectsLikeRandPerm(t *testing.T) {
	m := make([]int, 20000)
	rejecting := 0
	for seed := int64(0); seed < 64; seed++ {
		if assertPermLikeRand(t, seed, m) > len(m) {
			rejecting++
		}
	}
	if rejecting < 3 {
		t.Fatalf("%d of 64 seeds reject a draw in a 20,000-element shuffle, want at least 3", rejecting)
	}
	m = m[:385]
	for _, seed := range []int64{12613, 49065, 66364, 88794, 224192} {
		if assertPermLikeRand(t, seed, m) == len(m) {
			t.Errorf("seed %d: rand.Perm(385) rejects no draw", seed)
		}
	}
}

// After PermInto the stream goes on where rand.Perm's does, also when the
// last draw's bound is a power of two, which Int31n masks.
func TestPermIntoLeavesStreamLikeRandPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 385, 20000} {
		m := make([]int, n)
		for seed := int64(0); seed < 20; seed++ {
			assertPermLikeRand(t, seed, m)
		}
	}
}

// drawMix takes a fixed mix of every draw kind from g.
func drawMix(g *RNG, n int) []float64 {
	out := make([]float64, 0, 8*n)
	perm := make([]int, 7)
	for i := 0; i < n; i++ {
		g.PermInto(perm)
		out = append(out, g.Float64(), g.NormFloat64(), g.Laplace(2),
			float64(g.Intn(1+i)), float64(g.Int63()), float64(perm[i%7]))
	}
	return out
}

// A pooled generator is reseeded whole: after any amount of use by an
// earlier holder it yields exactly NewRNG(seed)'s stream.
func TestGetRNGMatchesNewRNG(t *testing.T) {
	for seed := int64(-5); seed < 300; seed++ {
		g := GetRNG(seed)
		got, want := drawMix(g, 40), drawMix(NewRNG(seed), 40)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: pooled draw %d = %v, fresh NewRNG gives %v", seed, i, got[i], want[i])
			}
		}
		drawMix(g, int(seed&15)) // leave it dirty for the next holder
		g.Release()
	}
}

// Reseeding a pooled generator allocates nothing; a fresh one costs its
// 607-word source state.
func TestGetRNGAllocations(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	GetRNG(1).Release()
	if allocs := testing.AllocsPerRun(100, func() { GetRNG(7).Release() }); allocs != 0 {
		t.Errorf("GetRNG + Release allocates %.0f times, want 0", allocs)
	}
}

func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRNG(int64(i))
	}
}

func BenchmarkGetRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GetRNG(int64(i)).Release()
	}
}

func BenchmarkPermInto(b *testing.B) {
	g, m := NewRNG(1), make([]int, 20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.PermInto(m)
	}
}

// BenchmarkPermIntoCold splits the cost of a shuffle whose memory is cold,
// as it is between two partitions of a query, into its two parts: the
// 20,000-int permutation buffer (160 KB) and the generator state (607
// words). "warm" shuffles one buffer with one generator; "cold-perm" takes
// each buffer from a ring of 8 MiB of them, with one generator; "cold-rng"
// takes each generator from a ring of 8 MiB of them, into one buffer; and
// "cold-both" cycles both rings. A ring entry is touched again only after
// the rest of its ring, well past any L2, has passed through the cache.
func BenchmarkPermIntoCold(b *testing.B) {
	const n, ringBytes = 20000, 8 << 20
	bufs := make([][]int, ringBytes/(8*n))
	for i := range bufs {
		bufs[i] = make([]int, n)
	}
	gens := make([]*RNG, ringBytes/(8*rngLen))
	for i := range gens {
		gens[i] = NewRNG(int64(i))
	}
	for _, c := range []struct {
		name             string
		coldBuf, coldGen bool
	}{{"warm", false, false}, {"cold-perm", true, false}, {"cold-rng", false, true}, {"cold-both", true, true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, g := bufs[0], gens[0]
				if c.coldBuf {
					m = bufs[i%len(bufs)]
				}
				if c.coldGen {
					g = gens[i%len(gens)]
				}
				g.PermInto(m)
			}
		})
	}
}

func TestLogNormalMedian(t *testing.T) {
	g := NewRNG(4)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = g.LogNormal(1.5, 0.8)
		if xs[i] <= 0 {
			t.Fatal("non-positive log-normal draw")
		}
	}
	// Median of LogNormal(mu, sigma) is e^mu.
	if med := Median(xs); math.Abs(med-math.Exp(1.5)) > 0.2 {
		t.Errorf("LogNormal median = %v, want ~%v", med, math.Exp(1.5))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	g := NewRNG(5)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = g.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.02 {
		t.Errorf("normal mean = %v", m)
	}
	if v := Variance(xs); math.Abs(v-1) > 0.03 {
		t.Errorf("normal variance = %v", v)
	}
}

func TestGammaInvalidParamsPanic(t *testing.T) {
	g := NewRNG(6)
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gamma(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			g.Gamma(bad[0], bad[1])
		}()
	}
}

func TestSumAndAbsErr(t *testing.T) {
	if got := Sum([]float64{1, 2, 3.5}); got != 6.5 {
		t.Errorf("Sum = %v", got)
	}
	if got := Sum(nil); got != 0 {
		t.Errorf("Sum(nil) = %v", got)
	}
	if got := AbsErr(3, 5); got != 2 {
		t.Errorf("AbsErr = %v", got)
	}
	if got := AbsErr(5, 3); got != 2 {
		t.Errorf("AbsErr = %v", got)
	}
}

func TestQuantileSortedEmpty(t *testing.T) {
	if got := QuantileSorted(nil, 0.5); got != 0 {
		t.Errorf("QuantileSorted(nil) = %v", got)
	}
}

func TestVecEqualLengthMismatch(t *testing.T) {
	if (Vec{1}).Equal(Vec{1, 2}, 1) {
		t.Error("length mismatch reported equal")
	}
}

func TestMinMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(nil) did not panic")
		}
	}()
	MinMax(nil)
}

func TestRMSEMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RMSE length mismatch did not panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}
