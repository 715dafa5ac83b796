package analytics

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gupt/internal/mathutil"
)

// KMeans is Lloyd's algorithm with k-means++ seeding, run for at most Iters
// iterations on the first FeatureDims columns of each record. It stops at
// the first iteration that leaves every center bit for bit where it was and
// reseeds no empty cluster: every later iteration would repeat it exactly,
// so the output is that of all Iters iterations, and the block's runtime
// depends on how fast it converges (SECURITY.md, "Timing side channel").
// Its output is the K cluster centers, flattened after sorting by first
// coordinate — the canonical ordering the paper applies so that centers
// from different blocks average meaningfully (§8, "Ordering of multiple
// outputs").
type KMeans struct {
	K           int
	FeatureDims int // number of leading columns to cluster on
	Iters       int // at most this many Lloyd iterations
	Seed        int64
}

// Name implements Program.
func (k KMeans) Name() string {
	return fmt.Sprintf("kmeans(k=%d,iters=%d)", k.K, k.Iters)
}

// OutputDims implements Program.
func (k KMeans) OutputDims() int { return k.K * k.FeatureDims }

// Run implements Program.
//
// The kernel keeps the K centers in one flat K·F slice and takes its scratch
// from a pool. Each float operation it makes happens in the order of the
// plain per-center loop (Vec.Dist2, nearest, AddInPlace, Scale), so the
// released bits are that loop's run for all Iters iterations, even when the
// kernel stops at a fixed point first (TestKernelsMatchReference), but it
// leaves out every operation whose outcome is already known:
//
//   - k-means++ makes one distance pass per center, K in all, where the
//     plain loop remeasures every earlier center in each round; the same
//     passes label iteration 0, which runs no nearest-center search.
//   - Later iterations measure only the points whose distance bounds cannot
//     rule out a new center (assign).
//   - Only the clusters that gained or lost a point are re-summed: an
//     unchanged cluster adds the same points in the same order.
//
// The block is this run's private copy and is only read.
func (k KMeans) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	out, _, err := k.run(block)
	return out, err
}

// run is Run, also returning how many Lloyd iterations it executed.
func (k KMeans) run(block []mathutil.Vec) (mathutil.Vec, int, error) {
	if len(block) == 0 {
		return nil, 0, ErrEmptyBlock
	}
	if k.K <= 0 || k.Iters <= 0 || k.FeatureDims <= 0 {
		return nil, 0, fmt.Errorf("analytics: kmeans needs positive K, Iters, FeatureDims; got %+v", k)
	}
	if len(block[0]) < k.FeatureDims {
		return nil, 0, fmt.Errorf("analytics: rows have %d dims, kmeans needs %d", len(block[0]), k.FeatureDims)
	}
	n, f := len(block), k.FeatureDims
	rng := mathutil.GetRNG(k.Seed)
	defer rng.Release()
	sc := kmeansPool.Get().(*kmeansScratch)
	defer func() {
		if kmeansPointBytes*cap(sc.upper) <= maxPooledBytes {
			kmeansPool.Put(sc)
		}
	}()
	sc.reset(n, k.K, f)
	centers := sc.centers

	// k-means++ seeding: the first center uniformly, each later one with
	// probability proportional to the squared distance from the nearest
	// center chosen so far. Round c measures center c alone (note); one
	// more round after the last draw measures center K−1, and leaves every
	// point labelled exactly as nearest labels it against all K. With one
	// center there is nothing to measure: every point is in cluster 0.
	copy(centers, block[rng.Intn(n)][:f])
	if k.K > 1 {
		for c := 0; c < k.K; c++ {
			sc.seedRound(block, centers[c*f:(c+1)*f], c)
			if c+1 < k.K {
				copy(centers[(c+1)*f:(c+2)*f], block[rng.Categorical(sc.upper)][:f])
			}
		}
		for i := range sc.upper {
			sc.upper[i], sc.lower[i] = sc.bounds(sc.upper[i], sc.lower[i])
		}
	}
	for _, c := range sc.labels {
		sc.counts[c]++
	}
	for c := range sc.changed {
		sc.changed[c] = true // the seeded centers are no cluster's mean
	}

	// An iteration is a pure function of the centers, the block and the
	// generator's state. One that changes none of them — no center
	// coordinate gets new bits, no reseed draws — hands the next iteration
	// its own inputs, so the loop ends there.
	iters := 0
	for iters < k.Iters {
		if iters > 0 {
			clear(sc.changed)
			if k.K > 1 {
				sc.assign(block, f)
			}
		}
		sc.resum(block, f)
		iters++
		if !sc.update(rng, block, f) {
			break
		}
	}

	sorted := make([]mathutil.Vec, k.K)
	for c := range sorted {
		sorted[c] = centers[c*f : (c+1)*f]
	}
	SortCenters(sorted)
	out := make(mathutil.Vec, 0, k.K*f)
	for _, c := range sorted {
		out = append(out, c...)
	}
	return out, iters, nil
}

// kmeansScratch is one run's working storage. It grows to the largest block
// and K·F it has served and goes back to kmeansPool when the run ends,
// unless its per-point slices are over maxPooledBytes.
type kmeansScratch struct {
	// upper[i] and lower[i] bound point i's distance to its own center from
	// above and to every other center from below (assign). During seeding
	// they hold the k-means++ weights d2 and the second-nearest squared
	// distance.
	upper, lower []float64
	labels       []int // each point's center
	open         []int // the points assign has not settled yet
	near         []int // the nearest center of each point nearestAVX measures
	centers      []float64
	centersT     []float64 // the centers feature-major, for nearestAVX (transposeCenters)
	sums         []float64
	counts       []int
	drift        []float64 // how far each center moved in the last update, rounded up; +Inf after a reseed
	loss         []float64 // the largest drift of any other center (assign)
	changed      []bool    // the cluster gained or lost a point in this iteration
	up, down     float64   // 1 ± the bounds' relative slack
}

var kmeansPool = sync.Pool{New: func() any { return new(kmeansScratch) }}

// kmeansPointBytes is the scratch a run keeps per point: upper, lower,
// labels, open and near.
const kmeansPointBytes = 40

// maxPooledBytes bounds the per-point scratch a kernel's pool keeps: 512 KiB
// is a 4,680-row logistic-regression block over ten features, or a
// 13,107-row k-means block. GUPT's default block over an n-row table is
// n^0.6 rows, so a ten-feature logistic regression passes it only on a
// table of over a million rows, and a block that size runs far longer than
// one allocation takes. A pooled
// buffer stays live for as long as blocks keep reusing it: without the
// bound, one whole-table run (the benchmark's ground truth over 20,000 rows)
// pinned ≈ 2.9 MB for the life of the process and raised the GC's heap goal
// with it.
const maxPooledBytes = 512 << 10

// reset sizes the scratch for n points, k centers and f features. Every
// slice is overwritten before it is read, except counts and labels, which
// start at zero.
func (sc *kmeansScratch) reset(n, k, f int) {
	sc.upper, sc.lower, sc.labels, sc.open = grow(sc.upper, n), grow(sc.lower, n), grow(sc.labels, n), grow(sc.open, n)
	sc.near = grow(sc.near, n)
	sc.centers, sc.sums = grow(sc.centers, k*f), grow(sc.sums, k*f)
	sc.centersT = grow(sc.centersT, (k+3)&^3*f)
	sc.counts, sc.drift, sc.changed = grow(sc.counts, k), grow(sc.drift, k), grow(sc.changed, k)
	sc.loss = grow(sc.loss, k)
	clear(sc.counts)
	clear(sc.labels)
	slack := float64(f+16) * 0x1p-44
	sc.up, sc.down = 1+slack, 1-slack
}

// grow returns s resliced to n, or a new slice when s is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// seedRound measures every point against center c, four points at a time,
// and notes each distance s in its seeding round; with the vector kernels
// on, seedRoundAVX does both for all but the last n mod 4 points. upper holds the k-means++
// weight d2: the distance to the center nearest picks among those measured
// so far, so a strictly smaller distance takes over, and while every
// distance so far is +Inf or NaN nearest picks center 0 and d2 keeps its
// distance — d2 is non-finite exactly then. nearest's best-so-far is
// therefore d2 with NaN read as +Inf, and the label moves to c exactly when
// d2 takes s. lower holds the smallest distance to any other center measured
// so far; it is NaN when d2 was NaN, which keeps the point out of assign's
// skip.
func (sc *kmeansScratch) seedRound(block []mathutil.Vec, center []float64, c int) {
	f, n := len(center), len(block)
	weights, lower, labels := sc.upper[:n], sc.lower[:n], sc.labels[:n]
	note := func(i int, s float64) {
		if d2 := weights[i]; c == 0 {
			weights[i], lower[i] = s, math.Inf(1)
		} else if s < d2 || (d2 != d2 && s < math.Inf(1)) {
			weights[i], lower[i], labels[i] = s, d2, c
		} else if s < lower[i] {
			lower[i] = s
		}
	}
	i := 0
	if useVectorSweeps {
		i = n &^ 3
		seedRoundAVX(block, center, c, weights[:i], lower, labels)
	}
	for ; i+4 <= n; i += 4 {
		s0, s1, s2, s3 := dist4(block[i][:f], block[i+1][:f], block[i+2][:f], block[i+3][:f],
			center, center, center, center)
		note(i, s0)
		note(i+1, s1)
		note(i+2, s2)
		note(i+3, s3)
	}
	for ; i < n; i++ {
		note(i, dist2(block[i][:f], center))
	}
}

// Bounds that decide a point without measuring it. Let D_c be the exact
// distance from a point to center c, and f the feature count. A computed
// squared distance is +Inf or D_c²(1+θ)+α, with |θ| ≤ (f+2)·2⁻⁵³ (one
// rounding of each difference and square, f−1 of the sum) and
// |α| ≤ f·2⁻¹⁰⁷⁵ (squares that underflow; a difference that underflows is
// exact). Bounds carry the relative slack s = (f+16)·2⁻⁴⁴, over 500 times
// θ, and keep
//
//	upper ≥ D_a·(1+s/2) − √f·2⁻⁵³⁷ for the point's own center a, and
//	lower ≤ D_c·(1−s/2) for every other center c.
//
// Each is set as √ of a computed distance times 1±s: the √ and the product
// round by 2⁻⁵³ each, and √f·2⁻⁵³⁷ covers α. A center's drift is √ of its
// moved coordinates' squared changes times 1+s, plus 2⁻⁵⁰⁰ for squares that
// underflowed, so it is at least (1+s/2) times the exact move, which by the
// triangle inequality bounds every distance's change. An update adds the
// own center's drift to upper and subtracts the largest other drift from
// lower, then multiplies by 1±s again, covering its two roundings. A point
// whose bounds satisfy upper < lower with 2⁻⁴⁸⁰ ≤ upper and lower < 2⁵⁰⁰
// then has D_a < D_c·(1−s/2)/(1+s/2) + √f·2⁻⁵³⁷ < 2⁵⁰⁰ for every c ≠ a;
// since D_c > 2⁻⁴⁸⁰, the last term is below s·D_c·2⁻¹³. So its computed
// distance to a is finite and strictly below every other computed distance:
// nearest would pick a, whatever the centers' order, and a tie, never
// strictly below, is always measured.
//
// Non-finite values never pass. A point with a NaN or ±Inf coordinate has a
// NaN or +Inf distance to its center and so a NaN or +Inf upper bound. A
// center with one has NaN or +Inf distances, which nearest never prefers to
// a finite one; a center that gains or loses one gets a non-finite drift,
// which is stored as +Inf, as is a reseeded center's, and +Inf sends every
// point back to be measured.
const (
	boundFloor = 0x1p-480
	boundCeil  = 0x1p500
	driftFloor = 0x1p-500
)

// bounds returns the bounds set from a point's squared distance own to its
// center and other to the nearest other center: an upper bound of at least
// boundFloor, and a lower one below boundCeil or −Inf. Updates only raise an
// upper bound, and never lift a lower one from below boundFloor to above
// it or from below boundCeil to above it, so upper < lower is the whole
// test.
func (sc *kmeansScratch) bounds(own, other float64) (float64, float64) {
	u := max(math.Sqrt(own)*sc.up, boundFloor)
	l := math.Sqrt(other) * sc.down
	if !(l < boundCeil) {
		l = math.Inf(-1)
	}
	return u, l
}

// assign is one Lloyd assignment after the first. It moves each point's
// bounds by the last update's drifts and measures only the points they do
// not settle: first the distance to the point's own center, four points at
// a time, then, for those that this does not settle either, every center
// (nearestTwo). Counts and changed follow every point that switches
// cluster. With the vector kernels on, ownDistsAVX measures the own-center
// distances of all but the last len(open) mod 4 points, and nearestAVX runs
// nearestTwo for every point left open.
func (sc *kmeansScratch) assign(block []mathutil.Vec, f int) {
	// Every point's lower bound loses the largest drift of a center other
	// than its own, loss[a] for a point in cluster a: looked up, not
	// branched on, since the cluster is a coin flip from point to point.
	top, next, topC := 0.0, 0.0, -1
	for c, d := range sc.drift {
		if d > top {
			top, next, topC = d, top, c
		} else if d > next {
			next = d
		}
	}
	for c := range sc.loss {
		sc.loss[c] = top
	}
	if topC >= 0 {
		sc.loss[topC] = next
	}
	open, k := sc.open, 0
	upper, lower, up, down := sc.upper[:len(sc.labels)], sc.lower[:len(sc.labels)], sc.up, sc.down
	drift, loss := sc.drift, sc.loss[:len(sc.drift)]
	for i, a := range sc.labels {
		u := (upper[i] + drift[a]) * up
		l := (lower[i] - loss[a]) * down
		upper[i], lower[i] = u, l
		open[k] = i
		if !(u < l) {
			k++
		}
	}
	open = open[:k]
	centers := sc.centers
	own := func(i int) []float64 { a := sc.labels[i]; return centers[a*f : (a+1)*f] }
	k, t := 0, 0
	tighten := func(i int, s float64) {
		u := max(math.Sqrt(s)*sc.up, boundFloor)
		sc.upper[i] = u
		open[k] = i
		if !(u < sc.lower[i]) {
			k++
		}
	}
	if useVectorSweeps {
		t = len(open) &^ 3
		ownDistsAVX(sc.upper, block, open[:t], sc.labels, centers, f)
		for _, i := range open[:t] {
			tighten(i, sc.upper[i])
		}
	}
	for ; t+4 <= len(open); t += 4 {
		i0, i1, i2, i3 := open[t], open[t+1], open[t+2], open[t+3]
		s0, s1, s2, s3 := dist4(block[i0][:f], block[i1][:f], block[i2][:f], block[i3][:f],
			own(i0), own(i1), own(i2), own(i3))
		tighten(i0, s0)
		tighten(i1, s1)
		tighten(i2, s2)
		tighten(i3, s3)
	}
	for ; t < len(open); t++ {
		tighten(open[t], dist2(block[open[t]][:f], own(open[t])))
	}
	open = open[:k]
	if useVectorSweeps && k > 0 {
		sc.transposeCenters(f)
		nearestAVX(sc.near, open, block, sc.centersT, len(sc.counts), f, sc.upper, sc.lower)
		for t, i := range open {
			sc.upper[i], sc.lower[i] = sc.bounds(sc.upper[i], sc.lower[i])
			sc.relabel(i, sc.near[t])
		}
		return
	}
	for _, i := range open {
		c, best, second := nearestTwo(centers, block[i][:f])
		sc.upper[i], sc.lower[i] = sc.bounds(best, second)
		sc.relabel(i, c)
	}
}

// relabel moves point i to cluster c, if it is not there already.
func (sc *kmeansScratch) relabel(i, c int) {
	if a := sc.labels[i]; c != a {
		sc.labels[i] = c
		sc.counts[a]--
		sc.counts[c]++
		sc.changed[a], sc.changed[c] = true, true
	}
}

// transposeCenters lays the centers out feature-major in centersT for
// nearestAVX: feature j of center c at j·k4 + c, k4 being K rounded up to
// four. The lanes past K hold zeros, and their sums are never folded.
func (sc *kmeansScratch) transposeCenters(f int) {
	k := len(sc.counts)
	k4 := (k + 3) &^ 3
	clear(sc.centersT)
	for c := 0; c < k; c++ {
		for j, x := range sc.centers[c*f : (c+1)*f] {
			sc.centersT[j*k4+c] = x
		}
	}
}

// resum recomputes the sums of the changed clusters, adding each cluster's
// points in block order, through resumAVX when the vector kernels are on.
func (sc *kmeansScratch) resum(block []mathutil.Vec, f int) {
	dirty := false
	for c, changed := range sc.changed {
		if changed {
			clear(sc.sums[c*f : (c+1)*f])
			dirty = true
		}
	}
	if !dirty {
		return
	}
	if useVectorSweeps {
		resumAVX(sc.sums, block, sc.labels, sc.changed, f)
		return
	}
	for i, r := range block {
		c := sc.labels[i]
		if !sc.changed[c] {
			continue
		}
		s := sc.sums[c*f : (c+1)*f]
		for j, x := range r[:f] {
			s[j] = addFirst(s[j], x)
		}
	}
}

// addFirst returns s + x with the NaN that ADDSD s, x keeps: s's, quieted,
// when s is a NaN. Go lets the compiler order a float add's operands, and
// with them which of two NaNs the sum keeps; a build with fuzzing
// instrumentation adds a re-sum's cell first. The sums' NaNs reach update's
// bit comparison and so decide when k-means stops, and resumAVX keeps s's.
func addFirst(s, x float64) float64 {
	if s != s {
		return math.Float64frombits(math.Float64bits(s) | 1<<51)
	}
	return s + x
}

// update moves every changed cluster's center to its points' mean, reseeds
// every empty cluster, and records each center's drift. It reports whether
// any center coordinate got new bits or any reseed drew. An unchanged
// cluster's center already is the mean of the same sums.
func (sc *kmeansScratch) update(rng *mathutil.RNG, block []mathutil.Vec, f int) bool {
	moved := false
	for c, cnt := range sc.counts {
		center := sc.centers[c*f : (c+1)*f]
		drift := 0.0
		switch {
		case cnt == 0:
			// Empty cluster: reseed to a random point so K is preserved.
			// The draw advances the generator, so it counts as a move
			// even when the point is where the center already was.
			copy(center, block[rng.Intn(len(block))][:f])
			moved = true
			drift = math.Inf(1)
		case sc.changed[c]:
			inv := 1 / float64(cnt)
			var acc float64
			shifted := false
			for j, s := range sc.sums[c*f : (c+1)*f] {
				if v := s * inv; math.Float64bits(v) != math.Float64bits(center[j]) {
					d := v - center[j]
					acc += d * d
					center[j] = v
					shifted = true
				}
			}
			if shifted {
				moved = true
				drift = math.Sqrt(acc)*sc.up + driftFloor
			}
		}
		if !(drift <= math.MaxFloat64) {
			drift = math.Inf(1) // a coordinate left or reached ±Inf or NaN
		}
		sc.drift[c] = drift
	}
	return moved
}

// dist4 runs four distance chains side by side: the squared distance of
// each p to its c, summed in index order like Vec.Dist2.
func dist4(p0, p1, p2, p3, c0, c1, c2, c3 []float64) (s0, s1, s2, s3 float64) {
	f := len(p0)
	p1, p2, p3 = p1[:f], p2[:f], p3[:f]
	c0, c1, c2, c3 = c0[:f], c1[:f], c2[:f], c3[:f]
	for j, x := range p0 {
		d0 := x - c0[j]
		s0 += d0 * d0
		d1 := p1[j] - c1[j]
		s1 += d1 * d1
		d2 := p2[j] - c2[j]
		s2 += d2 * d2
		d3 := p3[j] - c3[j]
		s3 += d3 * d3
	}
	return nanDist(s0, p0, c0), nanDist(s1, p1, c1), nanDist(s2, p2, c2), nanDist(s3, p3, c3)
}

// dist2 is Vec.Dist2 over flat slices: (p[j]−c[j])² summed in index order.
func dist2(p, c []float64) float64 {
	var s float64
	for j, x := range p {
		d := x - c[j]
		s += d * d
	}
	return nanDist(s, p, c)
}

// nanDist returns s, p's squared distance to c, or, when s is NaN, that
// distance again with every add keeping the running sum's NaN (addFirst),
// as the kernels and the normal build's loops do. A build with race or
// fuzzing instrumentation orders some of these adds the other way, and
// would keep another NaN.
func nanDist(s float64, p, c []float64) float64 {
	if s == s {
		return s
	}
	return dist2First(p, c)
}

// dist2First is dist2 with every add through addFirst.
func dist2First(p, c []float64) float64 {
	var s float64
	for j, x := range p {
		d := x - c[j]
		s = addFirst(s, d*d)
	}
	return s
}

// nearestTwo returns the index of the center in the flat slice centers
// nearest p, its squared distance, and the smallest squared distance of any
// other center. It decides exactly as nearest does — the first center
// strictly closer than every one before it, center 0 when none is closer
// than +Inf, and then best is +Inf — but runs four centers' distance chains
// side by side, each summing (p[i]−c[i])² in index order like Vec.Dist2. A
// NaN distance is neither best nor second.
func nearestTwo(centers, p []float64) (int, float64, float64) {
	f := len(p)
	k := len(centers) / f
	best, second, bestIdx := math.Inf(1), math.Inf(1), 0
	c := 0
	for ; c+4 <= k; c += 4 {
		c0 := centers[c*f:][:f]
		c1 := centers[(c+1)*f:][:f]
		c2 := centers[(c+2)*f:][:f]
		c3 := centers[(c+3)*f:][:f]
		var s0, s1, s2, s3 float64
		for i, x := range p {
			d0 := x - c0[i]
			s0 += d0 * d0
			d1 := x - c1[i]
			s1 += d1 * d1
			d2 := x - c2[i]
			s2 += d2 * d2
			d3 := x - c3[i]
			s3 += d3 * d3
		}
		best, second, bestIdx = keep(nanDist(s0, p, c0), c, best, second, bestIdx)
		best, second, bestIdx = keep(nanDist(s1, p, c1), c+1, best, second, bestIdx)
		best, second, bestIdx = keep(nanDist(s2, p, c2), c+2, best, second, bestIdx)
		best, second, bestIdx = keep(nanDist(s3, p, c3), c+3, best, second, bestIdx)
	}
	for ; c < k; c++ {
		best, second, bestIdx = keep(dist2(p, centers[c*f:][:f]), c, best, second, bestIdx)
	}
	return bestIdx, best, second
}

// keep folds center c's squared distance s into the nearest center so far
// (best, idx) and the smallest other distance (second).
func keep(s float64, c int, best, second float64, idx int) (float64, float64, int) {
	if s < best {
		return s, best, c
	}
	if s < second {
		second = s
	}
	return best, second, idx
}

func nearest(centers []mathutil.Vec, p mathutil.Vec) int {
	best, bestIdx := math.Inf(1), 0
	for c, center := range centers {
		if d := p.Dist2(center); d < best {
			best, bestIdx = d, c
		}
	}
	return bestIdx
}

// SortCenters orders centers lexicographically (first coordinate, then
// subsequent ones), in place. Idempotent; used to canonicalize multi-output
// programs before cross-block averaging.
func SortCenters(centers []mathutil.Vec) {
	sort.Slice(centers, func(i, j int) bool {
		a, b := centers[i], centers[j]
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
}

// UnflattenCenters splits a flattened center vector back into k centers of
// the given dimensionality.
func UnflattenCenters(flat mathutil.Vec, k, dims int) ([]mathutil.Vec, error) {
	if len(flat) != k*dims {
		return nil, fmt.Errorf("analytics: flat length %d != k*dims %d", len(flat), k*dims)
	}
	out := make([]mathutil.Vec, k)
	for c := 0; c < k; c++ {
		out[c] = flat[c*dims : (c+1)*dims].Clone()
	}
	return out, nil
}

// IntraClusterVariance is the paper's Fig. 4 metric:
// (1/n)·Σ_i Σ_{x∈C_i} |x − c_i|², assigning each point to its nearest
// center. Points use the first len(centers[0]) columns of each record.
func IntraClusterVariance(rows []mathutil.Vec, centers []mathutil.Vec) float64 {
	if len(rows) == 0 || len(centers) == 0 {
		return 0
	}
	dims := len(centers[0])
	var total float64
	for _, r := range rows {
		p := r[:dims]
		total += p.Dist2(centers[nearest(centers, p)])
	}
	return total / float64(len(rows))
}
