package dp

import (
	"testing"

	"gupt/internal/mathutil"
)

func BenchmarkLaplace(b *testing.B) {
	rng := mathutil.NewRNG(1)
	for i := 0; i < b.N; i++ {
		if _, err := Laplace(rng, 42, 1, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoisyAvg(b *testing.B) {
	rng := mathutil.NewRNG(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i % 150)
	}
	r := Range{Lo: 0, Hi: 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NoisyAvg(rng, xs, r, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPercentile(b *testing.B) {
	rng := mathutil.NewRNG(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i % 150)
	}
	r := Range{Lo: 0, Hi: 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Percentile(rng, xs, 0.5, r, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccountantSpend(b *testing.B) {
	a := NewAccountant(float64(b.N) + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Spend("bench", 1); err != nil {
			b.Fatal(err)
		}
	}
}
