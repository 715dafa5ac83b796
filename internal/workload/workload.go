// Package workload generates the synthetic datasets used by the experiment
// harness. Each generator is a deterministic stand-in for one of the real
// datasets in the GUPT paper's evaluation, matched on the statistics the
// experiments actually exercise (see DESIGN.md §3 for the substitution
// rationale):
//
//   - LifeSci        → komarix ds1.10 life-sciences dataset (26,733 × 10 PCA
//     components + a binary reactivity label; Figs. 3–6)
//   - CensusIncome   → UCI Adult census ages (32,561 records, mean ≈ 38.58;
//     Figs. 7–8)
//   - InternetAds    → UCI Internet Ads aspect ratios (3,279 records,
//     right-skewed; Fig. 9)
//
// All generators are pure functions of their seed.
package workload

import (
	"math"

	"gupt/internal/dataset"
	"gupt/internal/dp"
	"gupt/internal/mathutil"
)

// LifeSciRows is the row count of the paper's ds1.10 dataset.
const LifeSciRows = 26733

// LifeSciDims is the feature dimensionality of ds1.10 (top 10 principal
// components).
const LifeSciDims = 10

// LifeSciClusters is the number of mixture components the synthetic
// generator plants; k-means experiments recover these.
const LifeSciClusters = 4

// lifeSciMixtureMeans are the component centers, fixed so cluster structure
// is stable across seeds. Spread ±4 with unit component covariance keeps
// the components distinct but overlapping, like PCA-projected compound data.
var lifeSciMixtureMeans = [LifeSciClusters][LifeSciDims]float64{
	{4, 0, -2, 1, 3, -1, 0, 2, -3, 1},
	{-4, 2, 3, -1, 0, 1, -2, 0, 2, -1},
	{0, -4, 1, 3, -2, 2, 1, -3, 0, 2},
	{2, 3, -4, -2, 1, -3, 3, 1, 1, -2},
}

// lifeSciWeights is the ground-truth linear model that labels a compound
// reactive; the logistic noise scale below calibrates Bayes accuracy ≈ 94%,
// matching the paper's non-private baseline.
var lifeSciWeights = [LifeSciDims]float64{1.2, -0.8, 0.5, 0.9, -1.1, 0.4, -0.6, 0.7, 0.3, -0.5}

const lifeSciBias = 0.2
const lifeSciNoiseScale = 0.5

// LifeSci generates the synthetic life-sciences dataset: n rows of
// LifeSciDims features followed by a {0,1} reactivity label in the last
// column. Use LifeSciRows for the paper's size.
func LifeSci(seed int64, n int) *dataset.Table {
	rng := mathutil.NewRNG(seed)
	cols := make([]string, LifeSciDims+1)
	for i := 0; i < LifeSciDims; i++ {
		cols[i] = "pc" + string(rune('0'+i))
	}
	cols[LifeSciDims] = "reactive"
	t := dataset.New(cols)
	t.Grow(n)
	for i := 0; i < n; i++ {
		comp := rng.Intn(LifeSciClusters)
		row := make(mathutil.Vec, LifeSciDims+1)
		margin := lifeSciBias
		for j := 0; j < LifeSciDims; j++ {
			row[j] = lifeSciMixtureMeans[comp][j] + rng.NormFloat64()
			margin += lifeSciWeights[j] * row[j]
		}
		if margin+logisticNoise(rng, lifeSciNoiseScale) > 0 {
			row[LifeSciDims] = 1
		}
		if err := t.Append(row); err != nil {
			panic(err) // rows are rectangular by construction
		}
	}
	return t
}

// LifeSciFeatureRange is a generous public bound on every ds1.10 feature
// column, used as the analyst's input range.
func LifeSciFeatureRange() dp.Range { return dp.Range{Lo: -10, Hi: 10} }

// LifeSciRanges returns the per-column public attribute ranges (features
// plus the {0,1} label).
func LifeSciRanges() []dp.Range {
	out := make([]dp.Range, LifeSciDims+1)
	for i := 0; i < LifeSciDims; i++ {
		out[i] = LifeSciFeatureRange()
	}
	out[LifeSciDims] = dp.Range{Lo: 0, Hi: 1}
	return out
}

// logisticNoise draws from the logistic distribution with the given scale
// via inverse CDF.
func logisticNoise(rng *mathutil.RNG, scale float64) float64 {
	u := rng.Float64()
	for u == 0 || u == 1 {
		u = rng.Float64()
	}
	return scale * logit(u)
}

func logit(u float64) float64 {
	return math.Log(u / (1 - u))
}

// CensusRows is the row count of the UCI Adult census dataset.
const CensusRows = 32561

// CensusTrueMean is the mean age of the real dataset, which the synthetic
// generator is calibrated to.
const CensusTrueMean = 38.5816

// CensusIncome generates n ages matching the UCI Adult age column: a
// right-skewed Gamma distribution shifted to start at 17, clipped to
// [17, 90], then linearly recentred so the sample mean is exactly
// CensusTrueMean. Single column "age".
func CensusIncome(seed int64, n int) *dataset.Table {
	rng := mathutil.NewRNG(seed)
	ages := make([]float64, n)
	for i := range ages {
		a := 17 + rng.Gamma(2.6, 8.3)
		ages[i] = mathutil.Clamp(a, 17, 90)
	}
	// Recentre so downstream experiments can compare against the paper's
	// exact true mean; the shift is < 1 year and preserves the shape.
	shift := CensusTrueMean - mathutil.Mean(ages)
	t := dataset.New([]string{"age"})
	t.Grow(n)
	for _, a := range ages {
		if err := t.Append(mathutil.Vec{mathutil.Clamp(a+shift, 0, 150)}); err != nil {
			panic(err)
		}
	}
	return t
}

// CensusLooseRange is the paper's "reasonably loose" public bound on age.
func CensusLooseRange() dp.Range { return dp.Range{Lo: 0, Hi: 150} }

// AdsRows is the row count of the UCI Internet Ads dataset.
const AdsRows = 3279

// InternetAds generates n advertisement aspect ratios (width/height):
// log-normal, median ≈ 4.5, long right tail, clipped to [0.1, 60]. Single
// column "aspect".
func InternetAds(seed int64, n int) *dataset.Table {
	rng := mathutil.NewRNG(seed)
	t := dataset.New([]string{"aspect"})
	t.Grow(n)
	for i := 0; i < n; i++ {
		r := rng.LogNormal(1.5, 0.8)
		if err := t.Append(mathutil.Vec{mathutil.Clamp(r, 0.1, 60)}); err != nil {
			panic(err)
		}
	}
	return t
}

// AdsRange is the public bound on aspect ratios.
func AdsRange() dp.Range { return dp.Range{Lo: 0, Hi: 60} }
