package core

import "gupt/internal/mathutil"

// coins are every draw one release makes (Algorithm 1's partition, the
// private range estimate, the Laplace noise), and newCoins is the one place
// in the platform a generator for them is made. Options.Seed is the only
// input today; a source the analyst cannot see replaces it here.
type coins struct {
	// partition shuffles rows into blocks; ranges drives the percentile
	// estimates of loose and helper modes (nil for tight ranges); noise
	// draws the Laplace vector.
	partition, ranges, noise *mathutil.RNG
}

// newCoins derives the plan's generators from Options.Seed: three seeds
// drawn from a root stream, in partition, range, noise order (what three
// Splits of NewRNG(Seed) give). The range seed is drawn in every mode, so
// the noise seed after it stays put, but only loose and helper ranges seed
// a generator from it. All three are pooled; Execute draws from them on its
// own goroutine and releases them once, when it returns.
func (p *Plan) newCoins() coins {
	root := mathutil.GetRNG(p.Options.Seed)
	partSeed, rangeSeed, noiseSeed := root.Int63(), root.Int63(), root.Int63()
	root.Release()
	c := coins{partition: mathutil.GetRNG(partSeed), noise: mathutil.GetRNG(noiseSeed)}
	if p.Spec.Mode != ModeTight {
		c.ranges = mathutil.GetRNG(rangeSeed)
	}
	return c
}

// release returns the generators to the pool; c must not be used after.
func (c coins) release() {
	c.partition.Release()
	c.noise.Release()
	if c.ranges != nil {
		c.ranges.Release()
	}
}
