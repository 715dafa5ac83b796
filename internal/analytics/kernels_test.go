package analytics

import (
	"math"
	"runtime"
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

// sweepCell draws one cell for TestSweepsMatchLoops: mostly values on an
// ordinary scale, and −0, +0, subnormals, magnitudes up to 3·10⁴ (large
// enough that −|u| falls below ExpInto's vector window) and, when poison
// is set, NaN and ±Inf.
func sweepCell(rng *mathutil.RNG, poison bool) float64 {
	k := rng.Intn(24)
	if !poison && k >= 4 && k <= 6 {
		k = 7
	}
	switch k {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 3:
		return -0x1p-1030
	case 4:
		return math.NaN()
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	case 7, 8:
		return (2*rng.Float64() - 1) * 3e4
	case 9:
		return float64(rng.Intn(2))
	default:
		return rng.NormFloat64() * 3
	}
}

// Each sweep of a gradient pass must compute its Go loop's bits (every NaN
// counted as one value) with the vector kernels on and off, at every width
// from 1 to 40 features (several twelve-column chunks of grads) and every
// row count from 0 to 40 plus 385 and 386, so every n mod 16 occurs. Each
// shape runs on finite cells, where a wide sum stays finite and shows any
// change of rounding or order, and on cells holding NaN and ±Inf.
func TestSweepsMatchLoops(t *testing.T) {
	paths := []bool{false}
	if useVectorSweeps {
		paths = append(paths, true)
	} else {
		t.Log("no vector kernels on this CPU or GODEBUG: checking the fallback only")
	}
	defer func(v bool) { useVectorSweeps = v }(useVectorSweeps)
	rng := mathutil.NewRNG(49)
	var poison bool
	fill := func(xs []float64) []float64 {
		for i := range xs {
			xs[i] = sweepCell(rng, poison)
		}
		return xs
	}
	same := func(what string, vector bool, f, n int, got, want []float64) {
		t.Helper()
		if !sameBits(got, want) {
			t.Fatalf("vector=%v poison=%v f=%d n=%d %s:\n kernel %v\n loop   %v", vector, poison, f, n, what, got, want)
		}
	}
	ns := []int{385, 386}
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	for _, vector := range paths {
		useVectorSweeps = vector
		for f := 1; f <= 40; f++ {
			for _, n := range ns {
				for _, poison = range []bool{false, true} {
					cells := fill(make([]float64, (f+1)*n))
					for i := f * n; i < len(cells); i++ {
						cells[i] = 1 // the ones column
					}
					c := logregCols{cells: cells, n: n, f: f}
					w := fill(make([]float64, f+1))
					u, uLoop := make([]float64, n), make([]float64, n)
					c.dots(u, w)
					c.dotsLoop(uLoop, w)
					same("dots", vector, f, n, u, uLoop)

					err := fill(make([]float64, n))
					grad, gradLoop := make([]float64, (f+4)/4*4), make([]float64, (f+4)/4*4)
					c.grads(grad, err)
					c.gradsLoop(gradLoop, err)
					same("grads", vector, f, n, grad, gradLoop)

					y := make([]float64, n)
					for i := range y {
						y[i] = float64(rng.Intn(2))
					}
					z := fill(make([]float64, n))
					copy(u, z)
					copy(uLoop, z)
					sigmoidErrs(u, make([]float64, n), y)
					sigmoidErrsLoop(uLoop, make([]float64, n), y)
					same("sigmoidErrs", vector, f, n, u, uLoop)
				}
			}
		}
	}
}

// The pooled scratch keeps one layout: after a 385×11 block (served_ml's)
// the buffer logregPool hands back holds (f+4)·n + (f+4)/4·4 floats, and
// after a 20,000×11 regression, whose scratch is over maxPooledBytes, none
// of that scratch. A second, row-major copy for grads would pin
// ≈ 1.9 MB more for the life of the process (served_ml's peak_rss_mb
// +19 %).
func TestLogRegScratchDoesNotGrow(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	const f = 10
	for _, n := range []int{20000, 385} {
		block := kernelBlock(mathutil.NewRNG(3), n, f+1, false)
		lr := LogisticRegression{FeatureDims: f, LabelCol: f, Iters: 2, LearnRate: 0.5}
		want := (f+4)*n + (f+4)/4*4
		pooled := 8*want <= maxPooledBytes
		for try := 0; ; try++ {
			runtime.GC() // twice: empty the pool and its victim cache
			runtime.GC()
			if _, err := lr.Run(block); err != nil {
				t.Fatal(err)
			}
			buf := logregPool.Get().(*[]float64)
			logregPool.Put(buf)
			if cap(*buf) > want || 8*cap(*buf) > maxPooledBytes {
				t.Fatalf("a %d×%d block left %d floats of pooled scratch, want at most %d and at most %d bytes",
					n, f+1, cap(*buf), want, maxPooledBytes)
			}
			if !pooled || cap(*buf) > 0 {
				break
			}
			if try == 2 {
				t.Fatalf("the pool never handed back a %d×%d block's scratch", n, f+1)
			}
		}
	}
}

// A k-means block whose scratch is over maxPooledBytes leaves none of it in
// the pool.
func TestKMeansDropsOversizedScratch(t *testing.T) {
	allocguard.SkipUnderRace(t, "sync.Pool is deliberately lossy under the race detector")
	block := mixtureBlock(mathutil.NewRNG(4), 20000, 11)
	runtime.GC()
	runtime.GC()
	if _, err := (KMeans{K: 4, FeatureDims: 10, Iters: 2, Seed: 1}).Run(block); err != nil {
		t.Fatal(err)
	}
	sc := kmeansPool.Get().(*kmeansScratch)
	kmeansPool.Put(sc)
	if 32*cap(sc.upper) > maxPooledBytes {
		t.Errorf("a 20,000-row k-means block left %d points of scratch in the pool", cap(sc.upper))
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
// (1–400), F (1–40, so up to four twelve-column chunks of grads), Iters (1–20) and, from the fifth byte, the learning
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
	f := 1 + int(head[2])%40
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
// exactly as many iterations, with the vector kernels on and off, and leave
// the block as it found it. The seed corpus holds served_ml's shape (384 and
// 385 rows, F = 10, K = 4) and point counts of every residue mod 4, so the
// kernels' tails are in every short fuzz run.
func FuzzKMeansMatchesParent(f *testing.F) {
	f.Add([]byte{0x80, 0x01, 3, 9, 19, 7})
	f.Add([]byte{0x10, 0x00, 8, 2, 24, 1, 0, 1, 8, 9, 5, 5, 5})
	f.Add([]byte{0x40, 0x02, 4, 1, 12, 3, 7, 31, 200, 7, 24, 1, 7, 25, 1, 7, 27, 9, 7, 29, 99})
	f.Add([]byte{0x05, 0x00, 6, 4, 9, 2})
	f.Add([]byte{0x57, 0x02, 0, 5, 3, 4})
	f.Add([]byte{0x7f, 0x01, 3, 9, 19, 7})          // 384×10, K = 4
	f.Add([]byte{0x81, 0x01, 4, 19, 24, 11})        // 386×11, F = 10, K = 5
	f.Add([]byte{0x82, 0x01, 8, 9, 6, 5, 5, 5, 5})  // 387×10, K = 9
	f.Add([]byte{0x06, 0x00, 2, 19, 9, 3, 5, 5, 5}) // 7×11, F = 10, K = 3
	paths := []bool{false}
	if useVectorSweeps {
		paths = append(paths, true)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func(v bool) { useVectorSweeps = v }(useVectorSweeps)
		km, block := fuzzBlock(data)
		before := mathutil.CloneRows(block)
		want, wantIters, werr := parentKMeans(km, before)
		for _, vector := range paths {
			useVectorSweeps = vector
			got, gotIters, gerr := km.run(block)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("vector=%v %s: error %v, parent %v", vector, km.Name(), gerr, werr)
			}
			if !sameBits(got, want) || gotIters != wantIters {
				t.Fatalf("vector=%v %s over %d rows:\n kernel %v after %d iterations\n parent %v after %d",
					vector, km.Name(), len(block), got, gotIters, want, wantIters)
			}
			for i, r := range block {
				for j := range r {
					if math.Float64bits(r[j]) != math.Float64bits(before[i][j]) {
						t.Fatalf("vector=%v %s: row %d = %v after the run, was %v", vector, km.Name(), i, r, before[i])
					}
				}
			}
		}
	})
}
