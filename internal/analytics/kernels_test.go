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
// the four-lane and four-center strides, every K up to 9, up to 25 iterations,
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

// One k-means block takes its scratch from a pool and allocates only its
// output, the sort's center headers and the sort itself; the per-center
// loop it replaced made 215 allocations (37.5 KB) on this shape, and a
// scratch allocated per block 8 allocations (4,076 bytes).
func TestKMeansBlockAllocations(t *testing.T) {
	allocs, bytes := blockAllocations(t, KMeans{K: 4, FeatureDims: 10, Iters: 20, Seed: 1})
	// Measured 5 allocations, 512 bytes; the bounds are that + 20 %.
	if allocs > 6 || bytes > 614 {
		t.Errorf("a 385×11 k-means block allocates %.0f times, %d bytes; want <= 6 and <= 614", allocs, bytes)
	}
}

// One logistic-regression block takes its column-major copy and every other
// scratch slice from a pool and allocates only its output, the weights and
// the bias; a scratch allocated per block would be 43 KB on this shape.
func TestLogRegBlockAllocations(t *testing.T) {
	allocs, bytes := blockAllocations(t, LogisticRegression{FeatureDims: 10, LabelCol: 10, Iters: 50, LearnRate: 0.5})
	// Measured 1 allocation, 96 bytes; the bounds are that + 20 %.
	if allocs > 1 || bytes > 115 {
		t.Errorf("a 385×11 logreg block allocates %.0f times, %d bytes; want <= 1 and <= 115", allocs, bytes)
	}
}

// Sigmoid picks its numerator with z's sign bit instead of branching on
// z >= 0; it must return what the two-branch form returns, bit for bit
// (every NaN counted as one value), on every class of argument.
func TestSigmoidMatchesTwoBranchForm(t *testing.T) {
	twoBranch := func(z float64) float64 {
		if z >= 0 {
			return 1 / (1 + math.Exp(-z))
		}
		e := math.Exp(z)
		return e / (1 + e)
	}
	zs := []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1, -1, 36.7, -36.7, 707, -707, 709.5, -709.5,
		745.2, -745.2, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	rng := mathutil.NewRNG(5)
	for i := 0; i < 100000; i++ {
		zs = append(zs, rng.NormFloat64()*8, math.Float64frombits(uint64(rng.Int63())<<1^uint64(rng.Int63())))
	}
	for _, z := range zs {
		if got, want := Sigmoid(z), twoBranch(z); !sameBits(mathutil.Vec{got}, mathutil.Vec{want}) {
			t.Fatalf("Sigmoid(%v) = %v [%#x], two-branch form %v [%#x]", z, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// fuzzLogRegBlock builds a logistic-regression input from fuzz bytes: n
// (1–400), F (1–12), Iters (1–20) and, from the fifth byte, the learning
// rate, L1 on or off, an extra column, which column holds the label, and
// whether the block may hold non-finite cells and large ones; then one
// kind byte and one value byte per cell, F+1 or F+2 cells per row, from the
// rest, and from a generator seeded by the input once the bytes run out.
// Cells are small values on an exact grid and off it, 0/1 labels, tiny
// magnitudes and, where allowed, NaN, ±Inf (either turns every later pass
// to NaN, so they are rare) and magnitudes up to 3·10⁴, large enough that
// −|z+b| falls below −707 and ExpInto leaves those lanes to math.Exp.
func fuzzLogRegBlock(data []byte) (LogisticRegression, []mathutil.Vec) {
	head := make([]byte, 5)
	copy(head, data)
	rest := data[min(len(data), 5):]
	n := 1 + int(uint16(head[0])|uint16(head[1])<<8)%400
	f := 1 + int(head[2])%12
	lr := LogisticRegression{FeatureDims: f, LabelCol: f, Iters: 1 + int(head[3])%20,
		LearnRate: []float64{0.05, 0.3, 0.5, 2}[head[4]%4], L2: 0.01}
	if head[4]&4 != 0 {
		lr.L1 = 0.005
	}
	cols := f + 1 + int(head[4]>>3)%2
	if cols > f+1 && head[4]&0x20 != 0 {
		lr.LabelCol = cols - 1
	}
	poison, large := head[4]&0x40 != 0, head[4]&0x80 != 0
	rng := mathutil.NewRNG(int64(len(data))*131 + int64(head[3]))
	pos := 0
	next := func() int {
		pos++
		if pos <= len(rest) {
			return int(rest[pos-1])
		}
		return rng.Intn(256)
	}
	block := make([]mathutil.Vec, n)
	for i := range block {
		row := make(mathutil.Vec, cols)
		for j := range row {
			b, v := next(), float64(next())
			switch m := b % 64; {
			case m < 24:
				row[j] = (v - 128) / 32
			case m < 44:
				row[j] = v*0.0391 - 5.03
			case m < 56:
				row[j] = float64(int(v) % 2)
			case m < 59 && large:
				row[j] = (v - 128) * 237
			case m == 59 && poison:
				row[j] = math.NaN()
			case m == 60 && poison:
				row[j] = math.Inf(1)
			case m == 61 && poison:
				row[j] = math.Inf(-1)
			default:
				row[j] = (v - 128) * 1e-3
			}
		}
		block[i] = row
	}
	return lr, block
}

// The swept kernel must release exactly what the one-row loop releases
// (referenceLogReg), bit for bit, and leave the block as it found it.
func FuzzLogRegMatchesReference(f *testing.F) {
	f.Add([]byte{0x81, 0x01, 9, 49, 0x01})         // 386×11, finite cells
	f.Add([]byte{0x03, 0x00, 0, 6, 0x02, 3, 4, 5}) // 4×2
	f.Add([]byte{0x8f, 0x01, 11, 19, 0xfd})        // 400×14, every cell kind, L1, label last
	f.Add([]byte{0x00, 0x00, 4, 0, 0x87})          // one row, large cells
	f.Add([]byte{0x06, 0x00, 3, 12, 0x4b})         // 7×6, non-finite cells
	f.Add([]byte{0x32, 0x01, 10, 9, 0x81})         // 307×12, large cells
	f.Fuzz(func(t *testing.T, data []byte) {
		lr, block := fuzzLogRegBlock(data)
		before := mathutil.CloneRows(block)
		got, gerr := lr.Run(block)
		want, werr := referenceLogReg(lr, before)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, reference %v", lr.Name(), gerr, werr)
		}
		if !sameBits(got, want) {
			t.Fatalf("%+v over %d rows:\n kernel    %v\n reference %v", lr, len(block), got, want)
		}
		for i, r := range block {
			for j := range r {
				if math.Float64bits(r[j]) != math.Float64bits(before[i][j]) {
					t.Fatalf("%s: row %d = %v after the run, was %v", lr.Name(), i, r, before[i])
				}
			}
		}
	})
}

// fuzzBlock builds a k-means input from fuzz bytes: n (1–600), K (1–9), F
// (1–10), Iters (1–25) and the seed from the first six bytes, then one row
// kind and F cells per row from the rest, and from a generator seeded by the
// input once the bytes run out. Rows are exact duplicates of earlier rows,
// mirror images of earlier rows (x → −x, so that points sit at equal
// distances from two centers), members of one of four clusters, or fresh
// cells; cells come from a half-integer grid (more exact ties), a fine
// grid, NaN, ±Inf, magnitudes near 1e154 (squares overflow) and near 1e-160
// (squares underflow).
func fuzzBlock(data []byte) (KMeans, []mathutil.Vec) {
	head := make([]byte, 6)
	copy(head, data)
	rest := data[min(len(data), 6):]
	n := 1 + int(uint16(head[0])|uint16(head[1])<<8)%600
	km := KMeans{K: 1 + int(head[2])%9, FeatureDims: 1 + int(head[3])%10, Iters: 1 + int(head[4])%25, Seed: int64(head[5])}
	rng := mathutil.NewRNG(int64(len(data))*131 + int64(head[5]))
	pos := 0
	next := func() int {
		pos++
		if pos <= len(rest) {
			return int(rest[pos-1])
		}
		return rng.Intn(256)
	}
	f := km.FeatureDims
	cols := f + int(head[3])/10%2
	block := make([]mathutil.Vec, n)
	for i := range block {
		kind := next()
		row := make(mathutil.Vec, cols)
		switch {
		case i > 0 && kind%8 == 0:
			copy(row, block[next()%i])
		case i > 0 && kind%8 == 1:
			for j, x := range block[next()%i] {
				row[j] = -x
			}
		case kind%8 < 5:
			anchor := float64(kind>>3%4) * 6
			for j := range row {
				row[j] = anchor + float64(next()-128)/64
			}
		default:
			for j := range row {
				b, v := next(), float64(next())
				switch m := b % 32; {
				case m < 16:
					row[j] = (v - 128) / 2
				case m < 24:
					row[j] = v*0.1237 - 15.3
				case m == 24:
					row[j] = math.NaN()
				case m == 25:
					row[j] = math.Inf(1)
				case m == 26:
					row[j] = math.Inf(-1)
				case m < 30:
					row[j] = (v - 128) * 1e152
				default:
					row[j] = (v - 128) * 1e-162
				}
			}
		}
		block[i] = row
	}
	return km, block
}

// The pruned kernel must release exactly what the kernel that measured every
// distance of every iteration released (parentKMeans), bit for bit, after
// exactly as many iterations, and leave the block as it found it.
func FuzzKMeansMatchesParent(f *testing.F) {
	f.Add([]byte{0x80, 0x01, 3, 9, 19, 7})
	f.Add([]byte{0x10, 0x00, 8, 2, 24, 1, 0, 1, 8, 9, 5, 5, 5})
	f.Add([]byte{0x40, 0x02, 4, 1, 12, 3, 7, 31, 200, 7, 24, 1, 7, 25, 1, 7, 27, 9, 7, 29, 99})
	f.Add([]byte{0x05, 0x00, 6, 4, 9, 2})
	f.Add([]byte{0x57, 0x02, 0, 5, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		km, block := fuzzBlock(data)
		before := mathutil.CloneRows(block)
		got, gotIters, gerr := km.run(block)
		want, wantIters, werr := parentKMeans(km, before)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, parent %v", km.Name(), gerr, werr)
		}
		if !sameBits(got, want) || gotIters != wantIters {
			t.Fatalf("%s over %d rows:\n kernel %v after %d iterations\n parent %v after %d", km.Name(), len(block), got, gotIters, want, wantIters)
		}
		for i, r := range block {
			for j := range r {
				if math.Float64bits(r[j]) != math.Float64bits(before[i][j]) {
					t.Fatalf("%s: row %d = %v after the run, was %v", km.Name(), i, r, before[i])
				}
			}
		}
	})
}
