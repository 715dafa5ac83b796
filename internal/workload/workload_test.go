package workload

import (
	"math"
	"testing"

	"gupt/internal/mathutil"
)

func TestLifeSciShape(t *testing.T) {
	tbl := LifeSci(1, 500)
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Dims() != LifeSciDims+1 {
		t.Fatalf("dims = %d, want %d", tbl.Dims(), LifeSciDims+1)
	}
	labels := tbl.Column(LifeSciDims)
	for _, l := range labels {
		if l != 0 && l != 1 {
			t.Fatalf("non-binary label %v", l)
		}
	}
	// Classes must both be represented and not wildly imbalanced.
	pos := mathutil.Mean(labels)
	if pos < 0.2 || pos > 0.8 {
		t.Errorf("label balance %v, want within [0.2, 0.8]", pos)
	}
}

func TestLifeSciDeterministic(t *testing.T) {
	a := LifeSci(42, 50)
	b := LifeSci(42, 50)
	for i := 0; i < 50; i++ {
		if !a.Row(i).Equal(b.Row(i), 0) {
			t.Fatal("LifeSci not deterministic in seed")
		}
	}
	c := LifeSci(43, 50)
	same := true
	for i := 0; i < 50; i++ {
		if !a.Row(i).Equal(c.Row(i), 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestLifeSciFeaturesWithinPublicRange(t *testing.T) {
	tbl := LifeSci(7, 2000)
	r := LifeSciFeatureRange()
	outside := 0
	for i := 0; i < tbl.NumRows(); i++ {
		row := tbl.Row(i)
		for j := 0; j < LifeSciDims; j++ {
			if !r.Contains(row[j]) {
				outside++
			}
		}
	}
	// The range is a public loose bound: ±10 around means of magnitude ≤ 4
	// with unit noise, so essentially everything must fit.
	if outside > 0 {
		t.Errorf("%d feature values outside the public range", outside)
	}
}

func TestLifeSciClusterStructure(t *testing.T) {
	tbl := LifeSci(11, 4000)
	// Rows should sit near one of the planted means far more often than a
	// structureless cloud would.
	near := 0
	for i := 0; i < tbl.NumRows(); i++ {
		row := tbl.Row(i)[:LifeSciDims]
		best := math.Inf(1)
		for _, m := range lifeSciMixtureMeans {
			d := mathutil.Vec(m[:]).Dist(mathutil.Vec(row))
			if d < best {
				best = d
			}
		}
		// E[dist] for a 10-dim unit Gaussian is ~sqrt(10)≈3.16.
		if best < 5 {
			near++
		}
	}
	if frac := float64(near) / float64(tbl.NumRows()); frac < 0.95 {
		t.Errorf("only %.2f of rows near a planted center", frac)
	}
}

func TestLifeSciRanges(t *testing.T) {
	rs := LifeSciRanges()
	if len(rs) != LifeSciDims+1 {
		t.Fatalf("len = %d", len(rs))
	}
	if rs[LifeSciDims].Lo != 0 || rs[LifeSciDims].Hi != 1 {
		t.Errorf("label range = %+v", rs[LifeSciDims])
	}
}

func TestCensusIncomeStats(t *testing.T) {
	tbl := CensusIncome(3, CensusRows)
	if tbl.NumRows() != CensusRows {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	ages := tbl.Column(0)
	if m := mathutil.Mean(ages); math.Abs(m-CensusTrueMean) > 0.01 {
		t.Errorf("mean age = %v, want ~%v", m, CensusTrueMean)
	}
	lo, hi := mathutil.MinMax(ages)
	if lo < 0 || hi > 150 {
		t.Errorf("ages outside public range: [%v, %v]", lo, hi)
	}
	// Right-skewed: mean above median.
	if med := mathutil.Median(ages); med >= mathutil.Mean(ages) {
		t.Errorf("expected right skew, median %v >= mean %v", med, mathutil.Mean(ages))
	}
}

func TestCensusDeterministic(t *testing.T) {
	a := CensusIncome(5, 100)
	b := CensusIncome(5, 100)
	for i := 0; i < 100; i++ {
		if a.Row(i)[0] != b.Row(i)[0] {
			t.Fatal("CensusIncome not deterministic")
		}
	}
}

func TestInternetAdsStats(t *testing.T) {
	tbl := InternetAds(9, AdsRows)
	if tbl.NumRows() != AdsRows || tbl.Dims() != 1 {
		t.Fatalf("shape %dx%d", tbl.NumRows(), tbl.Dims())
	}
	xs := tbl.Column(0)
	r := AdsRange()
	for _, x := range xs {
		if !r.Contains(x) {
			t.Fatalf("aspect %v outside range", x)
		}
	}
	mean, med := mathutil.Mean(xs), mathutil.Median(xs)
	if mean <= med {
		t.Errorf("expected long right tail: mean %v <= median %v", mean, med)
	}
	if med < 3 || med > 6.5 {
		t.Errorf("median %v outside calibrated band [3, 6.5]", med)
	}
}

func TestGammaSampler(t *testing.T) {
	g := mathutil.NewRNG(1)
	const shape, scale = 2.6, 8.3
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Gamma(shape, scale)
	}
	wantMean := shape * scale
	if m := mathutil.Mean(xs); math.Abs(m-wantMean)/wantMean > 0.02 {
		t.Errorf("Gamma mean = %v, want ~%v", m, wantMean)
	}
	wantVar := shape * scale * scale
	if v := mathutil.Variance(xs); math.Abs(v-wantVar)/wantVar > 0.05 {
		t.Errorf("Gamma variance = %v, want ~%v", v, wantVar)
	}
	// Shape < 1 boost path.
	for i := 0; i < 1000; i++ {
		if x := g.Gamma(0.5, 1); x < 0 {
			t.Fatalf("negative Gamma draw %v", x)
		}
	}
}
