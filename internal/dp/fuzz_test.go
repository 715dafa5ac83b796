package dp

import (
	"math"
	"testing"

	"gupt/internal/mathutil"
)

// FuzzPercentile checks the DP quantile estimator never panics and always
// returns a value inside the public range, whatever the data.
func FuzzPercentile(f *testing.F) {
	f.Add([]byte{1, 2, 3}, 0.5, 1.0)
	f.Add([]byte{0}, 0.25, 0.01)
	f.Add([]byte{255, 255, 255, 255}, 0.75, 100.0)
	f.Fuzz(func(t *testing.T, raw []byte, p, eps float64) {
		if len(raw) == 0 {
			return
		}
		xs := make([]float64, len(raw))
		for i, b := range raw {
			xs[i] = float64(b) - 128
		}
		r := Range{Lo: -200, Hi: 200}
		got, err := Percentile(mathutil.NewRNG(1), xs, p, r, eps)
		if err != nil {
			return // invalid p or eps; rejection is fine
		}
		if math.IsNaN(got) || !r.Contains(got) {
			t.Fatalf("Percentile(p=%v, eps=%v) = %v escapes range", p, eps, got)
		}
	})
}

// FuzzAccountant checks the ledger invariant — spent never exceeds total —
// under arbitrary charge sequences.
func FuzzAccountant(f *testing.F) {
	f.Add([]byte{10, 20, 30}, 1.0)
	f.Add([]byte{255}, 0.5)
	f.Fuzz(func(t *testing.T, raw []byte, total float64) {
		if math.IsNaN(total) || math.IsInf(total, 0) || total < 0 || total > 1e9 {
			return
		}
		a := NewAccountant(total)
		accepted := 0
		for _, b := range raw {
			eps := float64(b) / 64
			if eps == 0 {
				continue
			}
			if a.Spend("f", eps) == nil {
				accepted++
			}
			if a.Spent() > a.Total()*(1+1e-9)+1e-12 {
				t.Fatalf("spent %v exceeds total %v", a.Spent(), a.Total())
			}
		}
		if got := a.Queries(); got != accepted {
			t.Fatalf("Queries = %d, want %d accepted spends", got, accepted)
		}
	})
}
