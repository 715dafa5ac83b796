package mathutil

import (
	"math"
	"math/rand"
	"sync"
)

// RNG is a deterministic, splittable source of randomness. Every stochastic
// component in GUPT draws from an RNG handed to it explicitly, so whole-system
// experiments are reproducible from a single seed.
//
// RNG is safe for concurrent use; the underlying generator is guarded by a
// mutex. For hot loops, Split off a child per goroutine instead of sharing.
type RNG struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new, independently seeded RNG from r. The child's stream
// is a deterministic function of r's state, so splitting is reproducible.
func (g *RNG) Split() *RNG {
	g.mu.Lock()
	defer g.mu.Unlock()
	return NewRNG(g.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Intn(n)
}

// Int63 returns a non-negative uniform 63-bit integer.
func (g *RNG) Int63() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Int63()
}

// NormFloat64 returns a standard normal variate.
func (g *RNG) NormFloat64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.NormFloat64()
}

// Perm returns a uniform random permutation of [0, n).
func (g *RNG) Perm(n int) []int {
	m := make([]int, n)
	g.PermInto(m)
	return m
}

// PermInto overwrites m with a uniform random permutation of [0, len(m)).
// It repeats math/rand's Perm draw for draw (the inside-out shuffle), so a
// seed yields the same permutation whether or not m is recycled storage:
// what m held is only ever copied onto itself (j == i) and then overwritten.
func (g *RNG) PermInto(m []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range m {
		j := g.r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.r.Shuffle(n, swap)
}

// Laplace returns a draw from the Laplace distribution with mean 0 and the
// given scale b (standard deviation b·√2), via inverse-CDF sampling.
func (g *RNG) Laplace(scale float64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.laplaceLocked(scale)
}

// laplaceLocked draws one Laplace variate from the underlying generator;
// the caller holds g.mu. A non-positive scale returns 0 without consuming
// randomness, matching the historical scalar behavior so batched and
// scalar callers stay on the same stream.
func (g *RNG) laplaceLocked(scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	// u is uniform in (-1/2, 1/2); the inverse CDF of Lap(0, b) maps it to
	// -b·sign(u)·ln(1-2|u|).
	u := g.r.Float64() - 0.5
	for u == -0.5 { // avoid log(0)
		u = g.r.Float64() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// LaplaceFill fills dst[i] with an independent Laplace(0, scales[i]) draw,
// taking the generator lock once for the whole batch instead of once per
// variate. The variate stream is bit-identical to calling Laplace(scales[i])
// sequentially in index order, so DP mechanisms can switch between the
// scalar and batched paths without changing released outputs. It panics on
// mismatched lengths; that is a programming error, not a data error.
func (g *RNG) LaplaceFill(dst, scales []float64) {
	mustSameLen(len(dst), len(scales))
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, s := range scales {
		dst[i] = g.laplaceLocked(s)
	}
}

// Exponential returns a draw from the exponential distribution with the
// given mean.
func (g *RNG) Exponential(mean float64) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.ExpFloat64() * mean
}

// LogNormal returns exp(N(mu, sigma^2)).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*g.NormFloat64())
}

// Categorical samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. If all
// weights are zero it returns a uniform index.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("mathutil: Categorical with no weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.Intn(len(weights))
	}
	x := g.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// GumbelCategorical samples an index with probability proportional to
// exp(logits[i]) using the Gumbel-max trick, which is numerically stable for
// large-magnitude logits (as produced by the exponential mechanism).
func (g *RNG) GumbelCategorical(logits []float64) int {
	if len(logits) == 0 {
		panic("mathutil: GumbelCategorical with no logits")
	}
	best, bestIdx := math.Inf(-1), 0
	for i, l := range logits {
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		v := l - math.Log(-math.Log(u))
		if v > best {
			best, bestIdx = v, i
		}
	}
	return bestIdx
}
