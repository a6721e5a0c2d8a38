package phy

import "math"

// Analytic bit-error-rate models for the link-level fidelity tier. The
// waveform simulator and these closed forms are cross-validated by tests;
// wide Monte-Carlo sweeps (hundreds of range points × thousands of trials)
// use the closed forms.

// BERNoncoherentFSK returns the bit error probability of noncoherent binary
// orthogonal FSK on AWGN at the given Eb/N0 (linear): ½·exp(−Eb/2N0).
func BERNoncoherentFSK(ebn0 float64) float64 {
	if ebn0 < 0 {
		return 0.5
	}
	return 0.5 * math.Exp(-ebn0/2)
}

// BERNoncoherentFSKRician returns the average bit error probability of
// noncoherent binary FSK over a Rician fading channel with K-factor k
// (linear) and mean Eb/N0 (linear):
//
//	Pb = (1+K)/(2+2K+γ̄) · exp(−K·γ̄/(2+2K+γ̄))
//
// K → ∞ recovers the AWGN expression; K = 0 the Rayleigh expression
// 1/(2+γ̄).
func BERNoncoherentFSKRician(ebn0, k float64) float64 {
	if math.IsInf(k, 1) {
		return BERNoncoherentFSK(ebn0)
	}
	if ebn0 < 0 {
		return 0.5
	}
	den := 2 + 2*k + ebn0
	return (1 + k) / den * math.Exp(-k*ebn0/den)
}

// BERNoncoherentMFSK returns the symbol-error-derived bit error probability
// of noncoherent M-ary orthogonal FSK on AWGN at Es/N0 (linear), using the
// union-bound-exact sum
//
//	Ps = Σ_{i=1..M−1} (−1)^{i+1} C(M−1,i)/(i+1) · exp(−i·Es/((i+1)N0))
//
// and the orthogonal-signaling bit-error relation Pb = Ps·M/(2(M−1)).
func BERNoncoherentMFSK(esn0 float64, m int) float64 {
	if m < 2 {
		return 0
	}
	if esn0 < 0 {
		esn0 = 0
	}
	var ps float64
	sign := 1.0
	c := float64(m - 1) // running binomial C(M-1, i)
	for i := 1; i <= m-1; i++ {
		ps += sign * c / float64(i+1) * math.Exp(-float64(i)*esn0/float64(i+1))
		sign = -sign
		c = c * float64(m-1-i) / float64(i+1)
	}
	if ps < 0 {
		ps = 0
	}
	if ps > 1 {
		ps = 1
	}
	return ps * float64(m) / (2 * float64(m-1))
}
