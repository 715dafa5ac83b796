package analytics

import (
	"math"
	"slices"
	"testing"

	"gupt/internal/mathutil"
)

// kmeansCell draws one cell for TestKMeansSweepsMatchLoops: sweepCell's
// cells and, when poison is set, NaNs of either sign with random payloads,
// so that a sum of two NaNs shows which operand it kept.
func kmeansCell(rng *mathutil.RNG, poison bool) float64 {
	if poison && rng.Intn(12) == 0 {
		return math.Float64frombits(0x7ff8000000000000 | uint64(rng.Int63())&0x8007ffffffffffff)
	}
	return sweepCell(rng, poison)
}

// assignState is a scratch set up for one block: every seeding round run by
// the Go loops, the seeded bounds, the counts, centers moved off the seeded
// ones and a drift per center, among them 0 and +Inf, so that assign leaves
// some points settled, measures some against their own center only and
// sends the rest to nearestTwo.
func assignState(rng *mathutil.RNG, block []mathutil.Vec, k, f int, poison bool) *kmeansScratch {
	sc := new(kmeansScratch)
	sc.reset(len(block), k, f)
	for c := 0; c < k; c++ {
		center := sc.centers[c*f : (c+1)*f]
		for j := range center {
			center[j] = kmeansCell(rng, poison)
		}
		if len(block) > 0 && rng.Intn(2) == 0 {
			copy(center, block[rng.Intn(len(block))][:f])
		}
		sc.seedRound(block, center, c)
	}
	for i := range sc.upper {
		sc.upper[i], sc.lower[i] = sc.bounds(sc.upper[i], sc.lower[i])
	}
	for _, c := range sc.labels {
		sc.counts[c]++
	}
	for c := range sc.drift {
		sc.drift[c] = []float64{0, 1e-9, 0.25, 3, math.Inf(1)}[rng.Intn(5)]
		if rng.Intn(3) == 0 {
			sc.centers[c*f+rng.Intn(f)] += sc.drift[c]
		}
	}
	return sc
}

// clone copies every slice of sc that a sweep reads or writes.
func (sc *kmeansScratch) clone() *kmeansScratch {
	c := *sc
	c.upper, c.lower = slices.Clone(sc.upper), slices.Clone(sc.lower)
	c.labels, c.open, c.near = slices.Clone(sc.labels), slices.Clone(sc.open), slices.Clone(sc.near)
	c.centers, c.centersT, c.sums = slices.Clone(sc.centers), slices.Clone(sc.centersT), slices.Clone(sc.sums)
	c.counts, c.drift, c.changed = slices.Clone(sc.counts), slices.Clone(sc.drift), slices.Clone(sc.changed)
	return &c
}

// Each of k-means's sweeps must compute its Go loop's bits, raw, NaN
// payloads included, with the vector kernels on and off: every seeding
// round, a whole assignment (own-center pass, nearestTwo and relabelling)
// and a re-sum, at every width from 1 to 40 features and every point count
// from 0 to 40 plus 385 and 386, with K cycling through 1..9 across both,
// on finite cells and on cells holding NaN, ±Inf, −0 and subnormals. With
// the kernels on, ownDistsAVX and nearestAVX are also held to dist2 and
// nearestTwo point by point, since assign passes their sums on only
// through a square root.
func TestKMeansSweepsMatchLoops(t *testing.T) {
	paths := []bool{false}
	if useVectorSweeps {
		paths = append(paths, true)
	} else {
		t.Log("no vector kernels on this CPU or GODEBUG: checking the fallback only")
	}
	defer func(v bool) { useVectorSweeps = v }(useVectorSweeps)
	rng := mathutil.NewRNG(51)
	var (
		vector, poison bool
		f, n, k        int
	)
	fail := func(what string, i int, got, want any) {
		t.Helper()
		t.Fatalf("vector=%v poison=%v f=%d n=%d K=%d %s[%d]: kernel %v, loop %v", vector, poison, f, n, k, what, i, got, want)
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				fail(what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	sameInts := func(what string, got, want []int) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				fail(what, i, got[i], want[i])
			}
		}
	}
	ns := []int{385, 386}
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	for _, vector = range paths {
		for f = 1; f <= 40; f++ {
			for _, n = range ns {
				k = 1 + (f+n)%9
				for _, poison = range []bool{false, true} {
					block := make([]mathutil.Vec, n)
					for i := range block {
						if i > 0 && rng.Intn(8) == 0 {
							block[i] = block[rng.Intn(i)]
							continue
						}
						block[i] = make(mathutil.Vec, f+n%2)
						for j := range block[i] {
							block[i][j] = kmeansCell(rng, poison)
						}
					}

					// Seeding: every round from the same state.
					vec, loop := new(kmeansScratch), new(kmeansScratch)
					vec.reset(n, k, f)
					loop.reset(n, k, f)
					for c := 0; c < k; c++ {
						center := make([]float64, f)
						for j := range center {
							center[j] = kmeansCell(rng, poison)
						}
						if n > 0 && rng.Intn(2) == 0 {
							copy(center, block[rng.Intn(n)][:f])
						}
						useVectorSweeps = vector
						vec.seedRound(block, center, c)
						useVectorSweeps = false
						loop.seedRound(block, center, c)
						same("seedRound weights", vec.upper, loop.upper)
						same("seedRound lower", vec.lower, loop.lower)
						sameInts("seedRound labels", vec.labels, loop.labels)
					}

					// One assignment, from a state the Go loops set up.
					loop = assignState(rng, block, k, f, poison)
					vec = loop.clone()
					useVectorSweeps = vector
					vec.assign(block, f)
					useVectorSweeps = false
					loop.assign(block, f)
					same("assign upper", vec.upper, loop.upper)
					same("assign lower", vec.lower, loop.lower)
					sameInts("assign labels", vec.labels, loop.labels)
					sameInts("assign counts", vec.counts, loop.counts)
					for c := range loop.changed {
						if vec.changed[c] != loop.changed[c] {
							fail("assign changed", c, vec.changed[c], loop.changed[c])
						}
					}

					// One re-sum of some clusters; the others' sums hold
					// stale values it must leave alone.
					for c := range loop.changed {
						loop.changed[c] = rng.Intn(4) != 0
					}
					for i := range loop.sums {
						loop.sums[i] = kmeansCell(rng, poison)
					}
					vec = loop.clone()
					useVectorSweeps = vector
					vec.resum(block, f)
					useVectorSweeps = false
					loop.resum(block, f)
					same("resum sums", vec.sums, loop.sums)

					if !vector || n == 0 {
						continue
					}
					// The two kernels assign reads only through a square
					// root, against their loops over a random open list.
					open := rng.Perm(n)[:1+rng.Intn(n)]
					dists := make([]float64, n)
					ownDistsAVX(dists, block, open, loop.labels, loop.centers, f)
					for _, i := range open[:len(open)&^3] {
						a := loop.labels[i]
						if want := dist2(block[i][:f], loop.centers[a*f:(a+1)*f]); math.Float64bits(dists[i]) != math.Float64bits(want) {
							fail("ownDistsAVX", i, dists[i], want)
						}
					}
					loop.transposeCenters(f)
					near, upper, lower := make([]int, len(open)), make([]float64, n), make([]float64, n)
					nearestAVX(near, open, block, loop.centersT, k, f, upper, lower)
					for t, i := range open {
						c, best, second := nearestTwo(loop.centers, block[i][:f])
						got, want := []float64{upper[i], lower[i]}, []float64{best, second}
						same("nearestAVX best, second", got, want)
						if near[t] != c {
							fail("nearestAVX center", t, near[t], c)
						}
					}
				}
			}
		}
	}
}
