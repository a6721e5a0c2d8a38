// Package piezo models the electro-mechanical behaviour of the piezoelectric
// transducers VAB is built from: their Butterworth–Van Dyke (BVD) equivalent
// circuit, electro-acoustic transduction, the load-dependent reflection
// coefficient that backscatter modulation relies on, and the matching
// networks the paper co-designs to keep transducer pairs from loading each
// other down.
//
// Underwater backscatter works by switching the electrical load on a
// transducer's terminals: the load sets how much of the incident acoustic
// energy (converted to the electrical domain through the piezoelectric
// coupling) is re-radiated versus absorbed. The achievable modulation depth
// is governed by the contrast |Γ₁ − Γ₂| between the reflection coefficients
// of the two load states — exactly the quantity this package computes from
// circuit values.
package piezo

import (
	"math"
	"math/cmplx"
)

// Transducer is a piezoelectric element described by its BVD equivalent
// circuit: a static (clamped) capacitance C0 in parallel with a motional
// series RLC branch (R1, L1, C1) representing the mechanical resonance.
type Transducer struct {
	C0 float64 // clamped capacitance, F
	R1 float64 // motional resistance, Ω (mechanical + radiation loss)
	L1 float64 // motional inductance, H
	C1 float64 // motional capacitance, F
}

// The design of the cylindrical transducers used in underwater backscatter
// prototypes: ~18.5 kHz resonance, moderate mechanical Q, k31-mode
// coupling around 0.3 (k² ≈ 0.09 would be raw ceramic; potted cylinders in
// water achieve effective k_eff² near 0.25–0.35 with the radiation load
// folded in).
const (
	resonanceHz = 18500 // series (motional) resonance f_s
	qm          = 28    // mechanical quality factor
	c0          = 9e-9  // clamped capacitance, F
	couplingK2  = 0.30  // effective electromechanical coupling k_eff²
)

// MustDefault returns the default transducer: the BVD circuit realizing
// the design constants above.
func MustDefault() *Transducer {
	return newTransducer(resonanceHz, qm, c0, couplingK2)
}

// newTransducer constructs the BVD circuit realizing a series resonance
// fs, mechanical quality factor q, clamped capacitance c0 and coupling
// k2. The motional branch values follow from
//
//	C1 = C0·k²/(1−k²),  L1 = 1/(ω_s²·C1),  R1 = ω_s·L1/Q_m.
//
// The design goes in as arguments, not as constants in the formulas: Go
// folds constant arithmetic exactly, which can round differently from the
// float64 operations the circuit has always been computed with.
func newTransducer(fs, q, c0, k2 float64) *Transducer {
	ws := 2 * math.Pi * fs
	c1 := c0 * k2 / (1 - k2)
	l1 := 1 / (ws * ws * c1)
	return &Transducer{C0: c0, R1: ws * l1 / q, L1: l1, C1: c1}
}

// Impedance returns the complex electrical impedance of the transducer at
// frequency fHz: the motional RLC branch in parallel with C0.
func (t *Transducer) Impedance(fHz float64) complex128 {
	w := 2 * math.Pi * fHz
	zm := complex(t.R1, w*t.L1-1/(w*t.C1))
	z0 := complex(0, -1/(w*t.C0))
	return zm * z0 / (zm + z0)
}

// SeriesResonance returns the motional (series) resonance frequency f_s in
// Hz, where the transducer's impedance magnitude dips: this is the operating
// point for maximum acoustic coupling.
func (t *Transducer) SeriesResonance() float64 {
	return 1 / (2 * math.Pi * math.Sqrt(t.L1*t.C1))
}

// Qm returns the mechanical quality factor ω_s·L1/R1.
func (t *Transducer) Qm() float64 {
	return 2 * math.Pi * t.SeriesResonance() * t.L1 / t.R1
}

// Response returns the normalized second-order band-pass transduction
// response at fHz (1 at resonance), applied to both receive and transmit
// paths. It captures how quickly the piezo rolls off away from resonance —
// the electro-mechanical constraint that shapes the choice of subcarrier
// frequencies.
func (t *Transducer) Response(fHz float64) complex128 {
	fs := t.SeriesResonance()
	q := t.Qm()
	u := fHz / fs
	den := complex(1-u*u, u/q)
	num := complex(0, u/q)
	return num / den
}

// ReflectionCoefficient returns the power-wave reflection coefficient seen
// by the acoustic wave when the transducer is terminated in zLoad at fHz:
//
//	Γ = (Z_L − Z_T*)/(Z_L + Z_T)
//
// Γ = 0 is the conjugate-matched (fully absorbing) state, |Γ| → 1 for a
// short or open. This is the knob backscatter modulation actuates.
func (t *Transducer) ReflectionCoefficient(fHz float64, zLoad complex128) complex128 {
	zt := t.Impedance(fHz)
	den := zLoad + zt
	if den == 0 {
		return complex(1, 0)
	}
	return (zLoad - cmplx.Conj(zt)) / den
}

// ModulationDepth returns |Γ(z1) − Γ(z2)|/2 at fHz, the amplitude of the
// backscatter sidebands relative to a perfect reflector when the load
// toggles between z1 and z2. The factor 1/2 is the fundamental-component
// coefficient of an ideal square-wave toggle.
func (t *Transducer) ModulationDepth(fHz float64, z1, z2 complex128) float64 {
	g1 := t.ReflectionCoefficient(fHz, z1)
	g2 := t.ReflectionCoefficient(fHz, z2)
	return cmplx.Abs(g1-g2) / 2
}

// ShortLoad approximates a closed analog switch (small on-resistance), the
// reflective state of backscatter switching.
var ShortLoad = complex(2.0, 0)

// MatchedLoad returns the conjugate-match impedance at fHz, the fully
// absorbing termination used for the non-reflective state and for energy
// harvesting.
func (t *Transducer) MatchedLoad(fHz float64) complex128 {
	return cmplx.Conj(t.Impedance(fHz))
}
