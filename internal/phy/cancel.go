package phy

// AdaptiveCanceller is a single-tap LMS canceller that subtracts the
// projector's direct-path leakage from the hydrophone capture using the
// known transmit envelope as reference. One complex tap suffices because
// the leakage is the dominant specular coupling at essentially zero delay;
// the residual (multipath leakage through the water column) is handled by
// the demodulator's DC notch.
type AdaptiveCanceller struct {
	w  complex128 // leakage estimate
	mu float64    // normalized step size in (0, 1]
}

// NewAdaptiveCanceller creates a canceller with the given normalized LMS
// step (0.05 is a robust default; larger adapts faster, noisier).
func NewAdaptiveCanceller(mu float64) *AdaptiveCanceller {
	if mu <= 0 || mu > 1 {
		panic("phy: canceller step must be in (0, 1]")
	}
	return &AdaptiveCanceller{mu: mu}
}

// Weight returns the current complex leakage estimate.
func (c *AdaptiveCanceller) Weight() complex128 { return c.w }

// Prime seeds the leakage estimate with the block least-squares solution
// w = Σy·conj(x)/Σ|x|² over the given capture. A cold-started LMS tap
// otherwise produces a large error transient during its first dozens of
// samples, which the downstream DC notch smears over its own (much longer)
// time constant, burying the burst; a deployed reader never sees this
// because it cancels continuously. Subcarrier-modulated content in y is
// near-orthogonal to the constant leakage and barely biases the estimate.
func (c *AdaptiveCanceller) Prime(y, x []complex128) {
	if len(y) != len(x) {
		panic("phy: canceller length mismatch")
	}
	var num complex128
	var den float64
	for i := range x {
		xi := x[i]
		num += y[i] * complex(real(xi), -imag(xi))
		den += real(xi)*real(xi) + imag(xi)*imag(xi)
	}
	if den > 0 {
		c.w = num / complex(den, 0)
	}
}

// Process subtracts the estimated leakage from y in place, adapting the
// estimate sample by sample against the transmit reference x. Slices must
// have equal length. Returns y. The estimate is held in a local for the
// loop and stored once at the end, so no sample waits on a store and
// reload of c.w.
func (c *AdaptiveCanceller) Process(y, x []complex128) []complex128 {
	if len(y) != len(x) {
		panic("phy: canceller length mismatch")
	}
	w, mu := c.w, c.mu
	for i := range y {
		xi := x[i]
		e := y[i] - w*xi
		y[i] = e
		// Normalized LMS update: w += µ·e·conj(x)/|x|².
		p := real(xi)*real(xi) + imag(xi)*imag(xi)
		if p > 0 {
			w += complex(mu/p, 0) * e * complex(real(xi), -imag(xi))
		}
	}
	c.w = w
	return y
}

// Reset clears the leakage estimate.
func (c *AdaptiveCanceller) Reset() { c.w = 0 }
