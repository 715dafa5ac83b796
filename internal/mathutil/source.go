package mathutil

import "math/rand"

// source is math/rand's default generator — Mitchell and Reeds' additive
// lagged-Fibonacci source, 607 words with a tap at 273 — held as a concrete
// type. Its Seed, Int63 and Uint64 yield rand.NewSource's values bit for bit
// (TestSourceMatchesMathRand), so a rand.Rand over it runs math/rand's own
// Float64, NormFloat64, ExpFloat64, Intn and Shuffle on the same stream. What
// owning it buys is speed: Seed multiplies instead of walking a serial
// chain, and PermInto shuffles with the generator's indices in registers
// and no interface call per draw.
type source struct {
	tap, feed int
	vec       [rngLen]uint64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedMul is the multiplier of MINSTD, the generator math/rand seeds
	// with: seedrand(x) = 48271·x mod (2³¹−1), so n steps from x land on
	// x·48271ⁿ mod (2³¹−1).
	seedMul = 48271
	// seedWarmup is how many seedrand steps Seed discards before word 0;
	// word i then XORs steps 21+3i, 22+3i and 23+3i (1,841 steps in all).
	seedWarmup = 20
)

var (
	// seedPow[i][k] is 48271^(seedWarmup+1+3i+k) mod (2³¹−1): the factor
	// that takes a seed to the k-th of the three MINSTD values in word i.
	seedPow = seedPowers()
	// rngCooked is math/rand's table of the same name, the constant word
	// i is XORed with after seeding. It is recovered from rand.NewSource(1)
	// rather than copied.
	rngCooked = cookedWords()
)

// mulMod returns x·a mod (2³¹−1) for x and a in [1, 2³¹−1). The product is
// below 2⁶², and folding its high bits onto its low 31 (2³¹ ≡ 1) leaves a
// value of at most 2·(2³¹−1) that is not a multiple of the prime, so one
// subtraction finishes the reduction.
func mulMod(x, a uint64) uint64 {
	v := x * a
	v = v&int32max + v>>31
	if v >= int32max {
		v -= int32max
	}
	return v
}

func seedPowers() (t [rngLen][3]uint64) {
	a := uint64(1)
	for n := 1; n <= seedWarmup+3*rngLen; n++ {
		a = mulMod(a, seedMul)
		if k := n - seedWarmup - 1; k >= 0 {
			t[k/3][k%3] = a
		}
	}
	return t
}

// minstdWord is the MINSTD part of word i for a seed already reduced to
// [1, 2³¹−1): three consecutive values packed as math/rand packs them.
func minstdWord(x uint64, i int) uint64 {
	p := &seedPow[i]
	return mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
}

// cookedWords solves rand.NewSource(1)'s state from its first 607 outputs
// and strips seed 1's MINSTD part from it. In draw order the state is
// x[0..606] and output k (k ≥ 1) is x[606+k] = x[k−1] + x[k+333], so
// walking the outputs backwards gives each x[m−607] = x[m] − x[m−273].
// Word i of the source's vec is x[(333−i) mod 607].
func cookedWords() (c [rngLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var x [2 * rngLen]uint64
	for m := rngLen; m < len(x); m++ {
		x[m] = src.Uint64()
	}
	for m := len(x) - 1; m >= rngLen; m-- {
		x[m-rngLen] = x[m] - x[m-rngTap]
	}
	for i := range c {
		c[i] = x[(rngLen-rngTap-1-i+rngLen)%rngLen] ^ minstdWord(1, i)
	}
	return c
}

// Seed rewrites the whole state — all 607 words and both indices — exactly
// as math/rand's rngSource.Seed does: the seed is taken mod 2³¹−1 with
// negatives wrapped, 0 stands for 89482311, and word i is three MINSTD
// values XOR rngCooked[i]. The MINSTD values come from seedPow, so no word
// waits on the one before it.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		s.vec[i] = minstdWord(x, i) ^ rngCooked[i]
	}
}

// Uint64 returns the next 64 bits of the stream.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// reduce31 is (*rand.Rand).Int31n's rule for n > 0, applied to one draw
// v = Int63()>>32: it returns the value Int31n returns, or −1 when Int31n
// rejects v and draws again. A power of two is masked and never rejects.
// Otherwise the one difference from Int31n is when the rejection bound
// 2³¹−1 − 2³¹ mod n is computed: since 2³¹ mod n < n, the bound is at least
// 2³¹−n, so a draw v ≤ 2³¹−1−n is accepted without it and only a larger v
// pays for the division.
func reduce31(v, n int32) int32 {
	if n&(n-1) == 0 { // n is a power of two, can mask
		return v & (n - 1)
	}
	if v > int32max-n && v > int32(int32max-(1<<31)%uint32(n)) {
		return -1
	}
	return int32(uint32(v) % uint32(n)) // v ≥ 0: no sign to fix up
}

// perm is (*rand.Rand).Perm's inside-out shuffle into m, for len(m) ≤
// 2³¹−1, drawing what Perm draws and leaving the source where Perm leaves
// it. Each draw is Uint64's step taken inline, with tap and feed held in
// locals and written back once at the end: through the pointer, every draw
// would store both indices and the next would wait to load them again.
func (s *source) perm(m []int) {
	tap, feed := s.tap, s.feed
	vec := &s.vec
	for i := 0; i < len(m); {
		tap--
		if tap < 0 {
			tap += rngLen
		}
		feed--
		if feed < 0 {
			feed += rngLen
		}
		x := vec[feed] + vec[tap]
		vec[feed] = x
		j := reduce31(int32(x&rngMask>>32), int32(i+1))
		if j < 0 {
			continue // rejected: draw again for the same i
		}
		m[i] = m[j]
		m[j] = i
		i++
	}
	s.tap, s.feed = tap, feed
}
