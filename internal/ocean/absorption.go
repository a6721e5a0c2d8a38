package ocean

import "math"

// Absorption returns the absorption coefficient in dB/km at frequency fHz
// for this environment using the Francois–Garrison (1982) model, which
// accounts for temperature, salinity, pH and depth. For fresh water the
// boric-acid and magnesium-sulfate relaxation terms vanish with salinity,
// leaving the pure-water viscous term — exactly the physical behaviour that
// makes river absorption much lower than ocean absorption at the VAB
// carrier frequency.
func (e *Environment) Absorption(fHz, depth float64) float64 {
	f := fHz / 1000 // model works in kHz
	t := e.Temperature
	s := e.Salinity
	c := 1412 + 3.21*t + 1.19*s + 0.0167*depth
	theta := 273 + t

	// Boric acid contribution.
	a1 := 8.86 / c * math.Pow(10, 0.78*e.PH-5)
	p1 := 1.0
	f1 := 2.8 * math.Sqrt(s/35) * math.Pow(10, 4-1245/theta)

	// Magnesium sulfate contribution.
	a2 := 21.44 * s / c * (1 + 0.025*t)
	p2 := 1 - 1.37e-4*depth + 6.2e-9*depth*depth
	f2 := 8.17 * math.Pow(10, 8-1990/theta) / (1 + 0.0018*(s-35))

	// Pure water contribution.
	var a3 float64
	if t <= 20 {
		a3 = 4.937e-4 - 2.59e-5*t + 9.11e-7*t*t - 1.50e-8*t*t*t
	} else {
		a3 = 3.964e-4 - 1.146e-5*t + 1.45e-7*t*t - 6.5e-10*t*t*t
	}
	p3 := 1 - 3.83e-5*depth + 4.9e-10*depth*depth

	ff := f * f
	return a1*p1*f1*ff/(ff+f1*f1) + a2*p2*f2*ff/(ff+f2*f2) + a3*p3*ff
}

// AbsorptionMid returns the absorption coefficient in dB/km evaluated at
// mid-column depth, the single number the link budget uses.
func (e *Environment) AbsorptionMid(fHz float64) float64 {
	return e.Absorption(fHz, e.Depth/2)
}

// TransmissionLoss returns the one-way transmission loss in dB over range
// rMeters at frequency fHz:
//
//	TL = k·10·log10(r) + α(f)·r/1000
//
// with k the environment's spreading exponent and α the Francois–Garrison
// absorption. Ranges below 1 m return 0 (the reference distance).
func (e *Environment) TransmissionLoss(fHz, rMeters float64) float64 {
	if rMeters <= 1 {
		return 0
	}
	return e.SpreadingExponent*10*math.Log10(rMeters) +
		e.AbsorptionMid(fHz)*rMeters/1000
}
