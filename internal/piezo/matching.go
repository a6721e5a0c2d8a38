package piezo

import (
	"fmt"
	"math"
	"math/cmplx"
)

// MatchingNetwork is a lossless L-section (series reactance plus shunt
// susceptance) that transforms the transducer's complex impedance into a
// real target resistance at the design frequency. The paper co-designs such
// networks so that interconnected Van Atta pairs transfer energy instead of
// detuning each other.
type MatchingNetwork struct {
	TargetR float64

	// Element values. Exactly one of each L/C pair is nonzero (or both zero
	// when the element is absent).
	seriesL float64 // H
	seriesC float64 // F
	shuntL  float64 // H
	shuntC  float64 // F

	shuntAtLoad bool // topology: shunt element adjacent to the load side
}

// DesignLSection synthesizes an L-section matching the complex impedance
// zLoad to the real resistance r0 at frequency fHz, using the standard
// analytic solution:
//
//   - R_L > r0: shunt susceptance across the load, series reactance toward
//     the source;
//   - R_L < r0: series reactance at the load, shunt susceptance at the
//     source;
//   - R_L = r0: a single series element cancels the load reactance.
//
// A load with non-positive resistance cannot be matched by a lossless
// network and returns an error.
func DesignLSection(zLoad complex128, r0, fHz float64) (*MatchingNetwork, error) {
	rl, xl := real(zLoad), imag(zLoad)
	if rl <= 0 {
		return nil, fmt.Errorf("piezo: cannot match non-dissipative impedance %v", zLoad)
	}
	if r0 <= 0 {
		return nil, fmt.Errorf("piezo: target resistance %.3g must be positive", r0)
	}
	if fHz <= 0 {
		return nil, fmt.Errorf("piezo: design frequency %.3g must be positive", fHz)
	}
	w := 2 * math.Pi * fHz
	m := &MatchingNetwork{TargetR: r0}

	setSeries := func(x float64) {
		if x > 0 {
			m.seriesL = x / w
		} else if x < 0 {
			m.seriesC = -1 / (w * x)
		}
	}
	setShunt := func(b float64) {
		if b > 0 {
			m.shuntC = b / w
		} else if b < 0 {
			m.shuntL = -1 / (w * b)
		}
	}

	switch {
	case math.Abs(rl-r0) < 1e-12*r0:
		setSeries(-xl)
	case rl > r0:
		// Shunt at the load: after adding susceptance, the input
		// resistance of the parallel combination equals r0.
		m.shuntAtLoad = true
		g := rl / (rl*rl + xl*xl)
		bl := -xl / (rl*rl + xl*xl)
		btot := math.Sqrt(g/r0 - g*g) // solvable since r0 < 1/g always here
		bAdd := btot - bl
		setShunt(bAdd)
		// Residual series reactance of the combination, cancelled by the
		// series element.
		x1 := -btot / (g*g + btot*btot)
		setSeries(-x1)
	default: // rl < r0
		// Series at the load: choose total reactance so the parallel
		// equivalent resistance equals r0.
		xt := math.Sqrt(rl * (r0 - rl))
		setSeries(xt - xl)
		bAdd := xt / (rl*rl + xt*xt)
		setShunt(bAdd)
	}
	return m, nil
}

// seriesX returns the series-element reactance at fHz (0 when absent).
func (m *MatchingNetwork) seriesX(w float64) float64 {
	switch {
	case m.seriesL > 0:
		return w * m.seriesL
	case m.seriesC > 0:
		return -1 / (w * m.seriesC)
	}
	return 0
}

// shuntB returns the shunt-element susceptance at fHz (0 when absent).
func (m *MatchingNetwork) shuntB(w float64) float64 {
	switch {
	case m.shuntC > 0:
		return w * m.shuntC
	case m.shuntL > 0:
		return -1 / (w * m.shuntL)
	}
	return 0
}

// InputImpedance returns the impedance looking into the network at fHz when
// terminated by zLoad. Because the synthesized inductor/capacitor values are
// fixed components, the network detunes naturally away from the design
// frequency — the behaviour the matching-bandwidth experiment measures.
func (m *MatchingNetwork) InputImpedance(fHz float64, zLoad complex128) complex128 {
	w := 2 * math.Pi * fHz
	xs := m.seriesX(w)
	b := m.shuntB(w)
	if m.shuntAtLoad {
		z := zLoad
		if b != 0 {
			z = 1 / (1/z + complex(0, b))
		}
		return z + complex(0, xs)
	}
	z := zLoad + complex(0, xs)
	if b != 0 {
		z = 1 / (1/z + complex(0, b))
	}
	return z
}

// MatchQuality returns |Γ| at the network input against the target
// resistance at fHz when terminated in zLoad: 0 is a perfect match, 1 total
// reflection.
func (m *MatchingNetwork) MatchQuality(fHz float64, zLoad complex128) float64 {
	zin := m.InputImpedance(fHz, zLoad)
	g := (zin - complex(m.TargetR, 0)) / (zin + complex(m.TargetR, 0))
	return cmplx.Abs(g)
}
