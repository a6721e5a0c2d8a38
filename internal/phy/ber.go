package phy

import (
	"math"

	"vab/internal/dsp"
)

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

// BERCoherentBPSK returns Q(√(2·Eb/N0)), the coherent matched-filter bound
// used as the "what a powered modem could do" reference curve.
func BERCoherentBPSK(ebn0 float64) float64 {
	if ebn0 < 0 {
		return 0.5
	}
	return dsp.Q(math.Sqrt(2 * ebn0))
}

// RequiredEbN0NoncoherentFSK inverts BERNoncoherentFSK: the Eb/N0 (linear)
// needed to hit a target BER on AWGN.
func RequiredEbN0NoncoherentFSK(ber float64) float64 {
	if ber >= 0.5 {
		return 0
	}
	return -2 * math.Log(2*ber)
}

// RequiredEbN0Rician inverts BERNoncoherentFSKRician numerically (bisection
// over dB) for a target BER under Rician fading with factor k (linear).
func RequiredEbN0Rician(ber, k float64) float64 {
	if ber >= 0.5 {
		return 0
	}
	lo, hi := -10.0, 80.0 // dB search bracket
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if BERNoncoherentFSKRician(dsp.FromDB(mid), k) > ber {
			lo = mid
		} else {
			hi = mid
		}
	}
	return dsp.FromDB((lo + hi) / 2)
}

// CountChipErrors compares detected chips against the transmitted reference
// and returns the number of mismatches. Slices must have equal length.
func CountChipErrors(got, want []byte) int {
	if len(got) != len(want) {
		panic("phy: chip slice length mismatch")
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
