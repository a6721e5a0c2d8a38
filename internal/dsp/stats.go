package dsp

import (
	"math"
	"math/rand"
)

// WilsonCI returns the Wilson score confidence interval for a binomial
// proportion with k successes out of n trials at confidence level implied by
// z (e.g. z = 1.96 for 95%).
func WilsonCI(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z2 := z * z
	den := 1 + z2/nn
	center := (p + z2/(2*nn)) / den
	half := z / den * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}

// GaussianNoise fills dst with circularly-symmetric complex Gaussian noise
// of total power (variance) np, using rng, and returns dst.
func GaussianNoise(dst []complex128, np float64, rng *rand.Rand) []complex128 {
	GaussianNoiseInto(dst, np, rng)
	return dst
}

// GaussianNoiseInto fills dst with circularly-symmetric complex Gaussian
// noise of total power (variance) np, drawing two normals per sample from
// rng in the same order as GaussianNoise (they are the same routine; this
// name exists so steady-state callers reusing a workspace buffer read as
// the allocation-free variant). It never allocates.
func GaussianNoiseInto(dst []complex128, np float64, rng *rand.Rand) {
	sigma := math.Sqrt(np / 2)
	for i := range dst {
		dst[i] = complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}
