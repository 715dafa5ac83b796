package analytics

import (
	"math"
	"testing"

	"gupt/internal/allocguard"
	"gupt/internal/mathutil"
)

// kernelBlock is an n-row block of cols columns: points around a few
// centers, exact duplicates, and, when poison is set, NaN and ±Inf cells in
// feature and label columns alike (registered tables are not checked for
// finiteness).
func kernelBlock(rng *mathutil.RNG, n, cols int, poison bool) []mathutil.Vec {
	block := make([]mathutil.Vec, n)
	for i := range block {
		if i > 0 && rng.Intn(8) == 0 {
			block[i] = block[rng.Intn(i)].Clone()
			continue
		}
		row := make(mathutil.Vec, cols)
		center := float64(rng.Intn(3)) * 5
		for j := range row {
			row[j] = center + rng.NormFloat64()
		}
		if rng.Intn(2) == 0 {
			row[cols-1] = float64(rng.Intn(2)) // a 0/1 label
		}
		if poison {
			for j := range row {
				switch rng.Intn(12) {
				case 0:
					row[j] = math.NaN()
				case 1:
					row[j] = math.Inf(1)
				case 2:
					row[j] = math.Inf(-1)
				}
			}
		}
		block[i] = row
	}
	return block
}

// mixtureBlock is an n-row block of cols columns drawn from four
// well-separated unit Gaussians: the clustered data on which k-means reaches
// its fixed point within a few iterations.
func mixtureBlock(rng *mathutil.RNG, n, cols int) []mathutil.Vec {
	block := make([]mathutil.Vec, n)
	for i := range block {
		row := make(mathutil.Vec, cols)
		center := float64(rng.Intn(4)) * 8
		for j := range row {
			row[j] = center + rng.NormFloat64()
		}
		block[i] = row
	}
	return block
}

// fewDistinctBlock is an n-row block of copies of one to three distinct
// rows, and the number of distinct rows it holds. With K above that count
// some cluster is empty in every Lloyd iteration, so k-means reseeds in
// iterations where the occupied centers may not move at all.
func fewDistinctBlock(rng *mathutil.RNG, n, cols int) ([]mathutil.Vec, int) {
	distinct := make([]mathutil.Vec, 1+rng.Intn(3))
	for i := range distinct {
		distinct[i] = make(mathutil.Vec, cols)
		for j := range distinct[i] {
			distinct[i][j] = float64(i) + float64(rng.Intn(3))/4
		}
	}
	block := make([]mathutil.Vec, n)
	used := map[int]bool{}
	for i := range block {
		d := rng.Intn(len(distinct))
		block[i] = distinct[d].Clone()
		used[d] = true
	}
	return block, len(used)
}

// The flat kernels must release exactly what the plain loops they replaced
// release (reference_test.go), bit for bit, across seeds, block sizes around
// the two-row and four-center strides, every K up to 9, up to 25 iterations,
// feature widths narrower than the row, both penalties, and blocks holding
// NaN and ±Inf — and must leave the block as they found it. The reference
// runs every iteration; k-means stops at its fixed point, so the clustered
// family must see most of its runs stop early, and the few-distinct family,
// whose empty clusters reseed every iteration, must see none stop early.
func TestKernelsMatchReference(t *testing.T) {
	const (
		unclustered = iota
		mixture
		fewDistinct
	)
	familyName := [...]string{"unclustered", "mixture", "few-distinct"}
	// The unclustered family, the only one with non-finite cells, runs the
	// full seed count; the other two only aim at the fixed-point exit.
	seeds := [...]int64{unclustered: 200, mixture: 40, fewDistinct: 40}
	if testing.Short() {
		seeds = [...]int64{unclustered: 20, mixture: 10, fewDistinct: 10}
	}
	var poisoned, ran, mixtureRuns, mixtureEarly, reseedingRuns int
	for family := unclustered; family <= fewDistinct; family++ {
		for seed := int64(0); seed < seeds[family]; seed++ {
			rng := mathutil.NewRNG(seed)
			for _, n := range []int{1, 2, 3, 5, 385, 386} {
				f := 1 + int(seed)%4
				cols := f + 1 + int(seed)%2
				poison := family == unclustered && seed%3 == 0
				var block []mathutil.Vec
				distinct := n
				switch family {
				case unclustered:
					block = kernelBlock(rng, n, cols, poison)
				case mixture:
					block = mixtureBlock(rng, n, cols)
				case fewDistinct:
					block, distinct = fewDistinctBlock(rng, n, cols)
				}
				before := mathutil.CloneRows(block)
				check := func(name string, got, want mathutil.Vec, gerr, werr error) {
					t.Helper()
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("seed %d n=%d %s %s: error %v, reference %v", seed, n, familyName[family], name, gerr, werr)
					}
					if !sameBits(got, want) {
						t.Fatalf("seed %d n=%d %s %s:\n kernel    %v\n reference %v", seed, n, familyName[family], name, got, want)
					}
					for i, r := range block {
						for j := range r {
							if math.Float64bits(r[j]) != math.Float64bits(before[i][j]) {
								t.Fatalf("seed %d n=%d %s %s: row %d = %v after the run, was %v",
									seed, n, familyName[family], name, i, r, before[i])
							}
						}
					}
					ran++
					if poison {
						poisoned++
					}
				}
				for k := 1; k <= 9; k++ {
					km := KMeans{K: k, FeatureDims: f, Iters: 1 + rng.Intn(25), Seed: seed*31 + int64(k)}
					got, executed, gerr := km.run(block)
					want, werr := referenceKMeans(km, block)
					check(km.Name(), got, want, gerr, werr)
					switch {
					case family == mixture && n > 5:
						mixtureRuns++
						if executed < km.Iters {
							mixtureEarly++
						}
					case family == fewDistinct && k > distinct:
						reseedingRuns++
						if executed != km.Iters {
							t.Fatalf("seed %d n=%d %s over %d distinct rows stopped after %d iterations; every one reseeds",
								seed, n, km.Name(), distinct, executed)
						}
					}
				}
				lr := LogisticRegression{FeatureDims: f, LabelCol: cols - 1, Iters: 1 + int(seed)%7,
					LearnRate: 0.3, L2: 0.01}
				if seed%3 != 1 {
					lr.L1 = 0.005
				}
				got, gerr := lr.Run(block)
				want, werr := referenceLogReg(lr, block)
				check(lr.Name(), got, want, gerr, werr)
			}
		}
	}
	t.Logf("%d runs matched, %d of them over blocks with non-finite cells; %d of %d clustered k-means runs stopped early; %d reseeding runs",
		ran, poisoned, mixtureEarly, mixtureRuns, reseedingRuns)
	if 2*mixtureEarly <= mixtureRuns {
		t.Errorf("only %d of %d k-means runs on clustered blocks stopped before Iters", mixtureEarly, mixtureRuns)
	}
	if reseedingRuns == 0 {
		t.Error("no k-means run had more clusters than distinct rows")
	}
}

// When the row k-means++ picks first holds a NaN or ±Inf feature, every
// round-1 distance is non-finite, and each later round must keep center 0's
// distance until a finite one beats +Inf — NaN included, which no
// comparison replaces. TestKernelsMatchReference reaches this only when its
// random poison happens to land on that row; here it always does, for K up
// to 6 and every Iters up to 20.
func TestKMeansSeedingNonFiniteFirstCenter(t *testing.T) {
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	seeds := int64(6)
	if testing.Short() {
		seeds = 2
	}
	ran := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := mathutil.NewRNG(seed)
		for _, n := range []int{2, 3, 5, 60, 385} {
			f := 1 + int(seed)%3
			clean := mixtureBlock(rng, n, f+1)
			for k := 1; k <= 6; k++ {
				for p, poison := range poisons {
					km := KMeans{K: k, FeatureDims: f, Seed: seed*101 + int64(k)}
					block := mathutil.CloneRows(clean)
					block[mathutil.NewRNG(km.Seed).Intn(n)][rng.Intn(f)] = poison
					if p > 0 { // and a second poisoned row the seeding may reach
						block[rng.Intn(n)][rng.Intn(f)] = poisons[rng.Intn(len(poisons))]
					}
					for km.Iters = 1; km.Iters <= 20; km.Iters++ {
						got, err := km.Run(block)
						want, werr := referenceKMeans(km, block)
						if err != nil || werr != nil || !sameBits(got, want) {
							t.Fatalf("seed %d n=%d %s, first center holds %v:\n kernel    %v (%v)\n reference %v (%v)",
								seed, n, km.Name(), poison, got, err, want, werr)
						}
						ran++
					}
				}
			}
		}
	}
	t.Logf("%d runs matched", ran)
}

// blockAllocations returns the mean allocations and bytes of prog.Run on a
// 385×11 block once the generator pool is warm.
func blockAllocations(t *testing.T, prog Program) (allocs float64, bytes uint64) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	block := kernelBlock(mathutil.NewRNG(1), 385, 11, false)
	run := func() {
		if _, err := prog.Run(block); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(20, run), allocguard.Bytes(run)
}

// One k-means block allocates its scratch once and nothing per iteration
// or per point; the per-center loop it replaced made 215 allocations
// (37.5 KB) on this shape.
func TestKMeansBlockAllocations(t *testing.T) {
	allocs, bytes := blockAllocations(t, KMeans{K: 4, FeatureDims: 10, Iters: 20, Seed: 1})
	// Measured 8 allocations, 4,076 bytes; the bounds are that + 20 %.
	if allocs > 9 || bytes > 4891 {
		t.Errorf("a 385×11 k-means block allocates %.0f times, %d bytes; want <= 9 and <= 4891", allocs, bytes)
	}
}

// One logistic-regression block allocates its weights (with room for the
// bias) and its gradient, and nothing per iteration.
func TestLogRegBlockAllocations(t *testing.T) {
	allocs, bytes := blockAllocations(t, LogisticRegression{FeatureDims: 10, LabelCol: 10, Iters: 50, LearnRate: 0.5})
	// Measured 2 allocations, 176 bytes; the bounds are that + 20 %.
	if allocs > 2 || bytes > 211 {
		t.Errorf("a 385×11 logreg block allocates %.0f times, %d bytes; want <= 2 and <= 211", allocs, bytes)
	}
}
