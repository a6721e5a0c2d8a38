// Package vanatta implements the retrodirective acoustic array at the core
// of VAB: piezoelectric transducer elements connected in mirrored pairs so
// that energy received by one element is re-radiated by its partner with a
// conjugated phase profile, steering the backscattered beam back toward the
// interrogator without any phase estimation or power.
//
// The package computes the complex scattering response of such arrays for
// arbitrary incident and observation directions, alongside the two baselines
// the paper compares against: a single-element scatterer (prior underwater
// backscatter) and a specular array (same aperture, elements terminated
// individually). The monostatic response of the Van Atta geometry is flat
// across incidence angle with field gain N (power gain N²), while the
// specular array only achieves N² at broadside — the physics behind the
// paper's "across orientations" claim.
package vanatta

import (
	"fmt"
	"math"
	"math/cmplx"

	"vab/internal/piezo"
)

// Vec3 is a Cartesian vector in meters (or unitless direction).
type Vec3 struct{ X, Y, Z float64 }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v normalized to unit length; the zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// DirectionXZ returns the unit vector in the x-z plane at angle theta from
// the array normal (+z), the convention used by the orientation sweeps:
// theta = 0 is broadside, ±π/2 end-fire.
func DirectionXZ(theta float64) Vec3 {
	return Vec3{X: math.Sin(theta), Z: math.Cos(theta)}
}

// Pair connects two element indices through a transmission line.
type Pair struct {
	A, B int
	// ExtraDelay is a per-pair line-length mismatch in seconds relative to
	// the nominal interconnect. Ideal Van Atta arrays need equal line
	// lengths; this field exists to study manufacturing tolerance.
	ExtraDelay float64
}

// Array is a Van Atta backscatter array: transducer elements at fixed
// positions, wired as mirrored pairs.
type Array struct {
	Positions []Vec3
	Pairs     []Pair
	// SelfPaired lists elements (odd center element) that reflect in place.
	SelfPaired []int

	Trans *piezo.Transducer // element model (shared)

	LineLossDB   float64 // one-way interconnect loss in dB
	LineDelaySec float64 // nominal interconnect electrical delay in s
	SoundSpeed   float64 // medium sound speed, m/s

	// failed marks elements out of service (nil = all healthy). A pair
	// with a failed member contributes nothing to the scattered field:
	// whether the transducer flooded (dead) or its modulation switch
	// jammed (stuck), the pair's energy no longer reaches the modulated
	// retrodirective sum, so both failure modes cost the same conversion
	// gain — the dominant effect field campaigns observe.
	failed []bool
}

// SetElementFault marks element i failed (true) or healthy (false).
// Out-of-range indices are ignored. Faults degrade Scatter and
// ScatterSpecular by removing the affected pair (or self-paired element)
// from the coherent sum.
func (a *Array) SetElementFault(i int, fault bool) {
	if i < 0 || i >= len(a.Positions) {
		return
	}
	if a.failed == nil {
		if !fault {
			return
		}
		a.failed = make([]bool, len(a.Positions))
	}
	a.failed[i] = fault
}

// ClearFaults restores every element to service.
func (a *Array) ClearFaults() { a.failed = nil }

// Clone returns a deep copy of the array: geometry, pairing and fault
// state are private to the copy, so fault injection on one clone can
// never be observed by — or race with — another. Only the immutable
// transducer model is shared.
func (a *Array) Clone() *Array {
	b := *a
	b.Positions = append([]Vec3(nil), a.Positions...)
	b.Pairs = append([]Pair(nil), a.Pairs...)
	b.SelfPaired = append([]int(nil), a.SelfPaired...)
	if a.failed != nil {
		b.failed = append([]bool(nil), a.failed...)
	}
	return &b
}

// FailedElements returns the number of elements currently out of service.
func (a *Array) FailedElements() int {
	n := 0
	for _, f := range a.failed {
		if f {
			n++
		}
	}
	return n
}

// elementOK reports whether element i is in service.
func (a *Array) elementOK(i int) bool {
	return a.failed == nil || !a.failed[i]
}

// NewUniformLinear builds an n-element linear Van Atta array along x,
// centered at the origin, with the given element spacing in meters.
// Elements are paired symmetrically about the center ((0,n−1), (1,n−2), …);
// with odd n the central element is self-paired. Spacing is typically λ/2.
func NewUniformLinear(n int, spacing float64, tr *piezo.Transducer, soundSpeed float64) (*Array, error) {
	if n < 1 {
		return nil, fmt.Errorf("vanatta: need at least 1 element, got %d", n)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("vanatta: spacing %.3g m must be positive", spacing)
	}
	if tr == nil {
		return nil, fmt.Errorf("vanatta: transducer model required")
	}
	if soundSpeed <= 0 {
		return nil, fmt.Errorf("vanatta: sound speed %.3g must be positive", soundSpeed)
	}
	a := &Array{
		Trans:      tr,
		SoundSpeed: soundSpeed,
		// A meter of coax plus a switch: fractions of a dB, small nominal
		// electrical delay.
		LineLossDB:   0.5,
		LineDelaySec: 5e-9,
	}
	mid := float64(n-1) / 2
	for i := 0; i < n; i++ {
		a.Positions = append(a.Positions, Vec3{X: (float64(i) - mid) * spacing})
	}
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		a.Pairs = append(a.Pairs, Pair{A: i, B: j})
	}
	if n%2 == 1 {
		a.SelfPaired = append(a.SelfPaired, n/2)
	}
	return a, nil
}

// N returns the number of elements.
func (a *Array) N() int { return len(a.Positions) }

// lineGain returns the complex one-way interconnect gain at fHz for a pair.
func (a *Array) lineGain(fHz float64, p Pair) complex128 {
	amp := math.Pow(10, -a.LineLossDB/20)
	delay := a.LineDelaySec + p.ExtraDelay
	return cmplx.Rect(amp, -2*math.Pi*fHz*delay)
}

// phase returns the spatial phase k·ŝ·r of an element for a wave arriving
// from (or departing toward) unit direction s.
func (a *Array) phase(fHz float64, s Vec3, i int) float64 {
	k := 2 * math.Pi * fHz / a.SoundSpeed
	return k * s.Dot(a.Positions[i])
}

// Scatter returns the complex field scattering response of the Van Atta
// array at frequency fHz for a wave incident from unit direction in and
// observed toward unit direction out (both pointing from the array toward
// the remote terminals). The response is normalized so that a single ideal
// isotropic element at the origin scores 1; it includes the element
// transduction roll-off (applied twice: receive and re-radiate) and the
// interconnect loss and phase.
func (a *Array) Scatter(fHz float64, in, out Vec3) complex128 {
	in = in.Unit()
	out = out.Unit()
	resp := a.Trans.Response(fHz)
	elem := resp * resp
	var sum complex128
	for _, p := range a.Pairs {
		if !a.elementOK(p.A) || !a.elementOK(p.B) {
			continue // a dead or stuck member breaks the whole pair's path
		}
		lg := a.lineGain(fHz, p)
		phiInA := a.phase(fHz, in, p.A)
		phiInB := a.phase(fHz, in, p.B)
		phiOutA := a.phase(fHz, out, p.A)
		phiOutB := a.phase(fHz, out, p.B)
		// Energy flows both ways through the interconnect: A→B and B→A.
		sum += lg * (cmplx.Rect(1, phiInA+phiOutB) + cmplx.Rect(1, phiInB+phiOutA))
	}
	for _, s := range a.SelfPaired {
		if !a.elementOK(s) {
			continue
		}
		sum += cmplx.Rect(1, a.phase(fHz, in, s)+a.phase(fHz, out, s))
	}
	return elem * sum
}

// ScatterSpecular returns the response of the same aperture with every
// element terminated individually (no interconnects): the specular-array
// baseline. Monostatically it forms a beam only near broadside.
func (a *Array) ScatterSpecular(fHz float64, in, out Vec3) complex128 {
	in = in.Unit()
	out = out.Unit()
	resp := a.Trans.Response(fHz)
	elem := resp * resp
	var sum complex128
	for i := range a.Positions {
		if !a.elementOK(i) {
			continue
		}
		sum += cmplx.Rect(1, a.phase(fHz, in, i)+a.phase(fHz, out, i))
	}
	return elem * sum
}

// MonostaticGainDB returns the power gain in dB of the retrodirective
// response back toward a source at angle theta (x-z plane, 0 = broadside),
// relative to a single ideal element.
func (a *Array) MonostaticGainDB(fHz, theta float64) float64 {
	d := DirectionXZ(theta)
	g := cmplx.Abs(a.Scatter(fHz, d, d))
	if g <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(g)
}

// MonostaticSpecularGainDB is the baseline counterpart of MonostaticGainDB.
func (a *Array) MonostaticSpecularGainDB(fHz, theta float64) float64 {
	d := DirectionXZ(theta)
	g := cmplx.Abs(a.ScatterSpecular(fHz, d, d))
	if g <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(g)
}

// OrientationSweep returns the monostatic gain in dB at each angle for both
// the Van Atta wiring and the specular baseline. Angles are radians in the
// x-z plane.
func (a *Array) OrientationSweep(fHz float64, thetas []float64) (vanAtta, specular []float64) {
	vanAtta = make([]float64, len(thetas))
	specular = make([]float64, len(thetas))
	for i, th := range thetas {
		vanAtta[i] = a.MonostaticGainDB(fHz, th)
		specular[i] = a.MonostaticSpecularGainDB(fHz, th)
	}
	return vanAtta, specular
}

// MinMonostaticGainDB returns the worst-case monostatic gain across the
// given angular sector (radians, symmetric about broadside), the figure of
// merit for orientation robustness.
func (a *Array) MinMonostaticGainDB(fHz, sector float64, steps int) float64 {
	min := math.Inf(1)
	for i := 0; i <= steps; i++ {
		th := -sector/2 + sector*float64(i)/float64(steps)
		if g := a.MonostaticGainDB(fHz, th); g < min {
			min = g
		}
	}
	return min
}
