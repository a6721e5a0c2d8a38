// Package ocean models the underwater acoustic environment the VAB system
// operates in: sound speed, frequency-dependent absorption, spreading loss,
// ambient noise, boundary reflection, and image-method multipath for
// shallow-water waveguides.
//
// The models are the standard ones used by the underwater acoustic
// networking community (Mackenzie sound speed, Francois–Garrison
// absorption, Wenz ambient noise curves, Rayleigh boundary reflection), so
// link budgets computed here are directly comparable to the paper's field
// settings: a shallow river (Charles River trials) and a coastal ocean
// deployment (Atlantic trials).
//
// Conventions: depths in meters positive downward with the surface at z = 0,
// frequencies in Hz unless a name says kHz, sound levels in dB re 1 µPa (the
// underwater reference), and noise spectral densities in dB re 1 µPa²/Hz.
package ocean

import "fmt"

// Environment describes a body of water and its boundaries. The zero value
// is not useful; start from a preset or fill all fields.
type Environment struct {
	Name string

	// Water column.
	Depth       float64 // water depth in m
	Temperature float64 // °C
	Salinity    float64 // parts per thousand (ppt); ~0.5 fresh, ~35 open ocean
	PH          float64 // acidity, ~8 for seawater, ~7 fresh

	// Sea state.
	WindSpeed    float64 // m/s at 10 m height, drives wind noise + surface roughness
	Shipping     float64 // shipping activity factor in [0,1] for Wenz curves
	WaveRMS      float64 // RMS surface wave height in m (surface roughness)
	SurfaceSpeed float64 // RMS vertical surface motion in m/s (Doppler spread)

	// Bottom half-space (fluid model).
	BottomDensity    float64 // kg/m³
	BottomSoundSpeed float64 // m/s
	BottomLossDB     float64 // extra per-bounce loss in dB (scattering, porosity)

	// Propagation.
	SpreadingExponent float64 // k in TL = k·10·log10(r): 2 spherical, 1 cylindrical
}

// Validate reports whether the environment is physically sensible.
func (e *Environment) Validate() error {
	switch {
	case e.Depth <= 0:
		return fmt.Errorf("ocean: depth %.2f m must be positive", e.Depth)
	case e.Temperature < -2 || e.Temperature > 40:
		return fmt.Errorf("ocean: temperature %.1f °C outside [-2, 40]", e.Temperature)
	case e.Salinity < 0 || e.Salinity > 45:
		return fmt.Errorf("ocean: salinity %.1f ppt outside [0, 45]", e.Salinity)
	case e.WindSpeed < 0:
		return fmt.Errorf("ocean: wind speed %.1f m/s negative", e.WindSpeed)
	case e.Shipping < 0 || e.Shipping > 1:
		return fmt.Errorf("ocean: shipping factor %.2f outside [0,1]", e.Shipping)
	case e.BottomDensity < 1000:
		return fmt.Errorf("ocean: bottom density %.0f kg/m³ below water", e.BottomDensity)
	case e.BottomSoundSpeed <= 0:
		return fmt.Errorf("ocean: bottom sound speed %.0f m/s invalid", e.BottomSoundSpeed)
	case e.SpreadingExponent < 1 || e.SpreadingExponent > 2:
		return fmt.Errorf("ocean: spreading exponent %.2f outside [1,2]", e.SpreadingExponent)
	}
	return nil
}

// WaterDensity is the nominal density of water used for impedance
// calculations, in kg/m³. The fresh/salt difference (~2.5%) is below the
// fidelity of the rest of the model.
const WaterDensity = 1025.0

// CharlesRiver returns the river preset used for the paper's first
// deployment campaign: shallow fresh water, calm surface, soft mud bottom.
func CharlesRiver() *Environment {
	return &Environment{
		Name:             "charles-river",
		Depth:            4.0,
		Temperature:      15.0,
		Salinity:         0.5,
		PH:               7.2,
		WindSpeed:        2.0,
		Shipping:         0.2,
		WaveRMS:          0.005, // calm river: mm-scale ripple (λ ≈ 8 cm at 18.5 kHz)
		SurfaceSpeed:     0.02,
		BottomDensity:    1450,
		BottomSoundSpeed: 1480,
		BottomLossDB:     2.0,
		// Shallow channels trap energy between boundaries: practical
		// spreading between cylindrical and spherical.
		SpreadingExponent: 1.5,
	}
}

// AtlanticCoastal returns the ocean preset for the paper's ocean validation:
// deeper salt water, wind-driven surface, sandy bottom, more shipping.
func AtlanticCoastal() *Environment {
	return &Environment{
		Name:              "atlantic-coastal",
		Depth:             14.0,
		Temperature:       12.0,
		Salinity:          33.0,
		PH:                8.0,
		WindSpeed:         7.0,
		Shipping:          0.5,
		WaveRMS:           0.25,
		SurfaceSpeed:      0.3,
		BottomDensity:     1900,
		BottomSoundSpeed:  1650,
		BottomLossDB:      1.0,
		SpreadingExponent: 1.6,
	}
}

// TestTank returns an idealized anechoic test tank: a quiet single-path
// medium, useful for unit tests, calibration and debugging. A flat water
// surface is a perfect (−1) reflector and a hard flat bottom reflects
// totally below its critical angle, so a *literal* tank of still water is
// an echo chamber; the anechoic treatment is modeled as strong surface
// roughness and bottom absorption, leaving only the direct arrival.
func TestTank() *Environment {
	return &Environment{
		Name:              "test-tank",
		Depth:             100.0,
		Temperature:       20.0,
		Salinity:          0.5,
		PH:                7.0,
		WindSpeed:         0,
		Shipping:          0,
		WaveRMS:           0.5, // anechoic surface treatment
		SurfaceSpeed:      0,
		BottomDensity:     1200, // absorber-lined bottom
		BottomSoundSpeed:  1400,
		BottomLossDB:      30,
		SpreadingExponent: 2.0,
	}
}

// SoundSpeed returns the speed of sound in m/s at the given depth using the
// Mackenzie (1981) nine-term equation, valid for T in [-2, 30] °C, S in
// [25, 40] ppt and depth to 8000 m; it degrades gracefully outside (fresh
// water values land within ~0.3% of tabulated data).
func (e *Environment) SoundSpeed(depth float64) float64 {
	t := e.Temperature
	s := e.Salinity
	d := depth
	return 1448.96 + 4.591*t - 5.304e-2*t*t + 2.374e-4*t*t*t +
		1.340*(s-35) + 1.630e-2*d + 1.675e-7*d*d -
		1.025e-2*t*(s-35) - 7.139e-13*t*d*d*d
}

// MeanSoundSpeed returns the depth-averaged sound speed of the water column,
// which the iso-velocity image method uses.
func (e *Environment) MeanSoundSpeed() float64 {
	// The Mackenzie depth terms are near-linear over tens of meters; a
	// 3-point Simpson average is more than enough.
	c0 := e.SoundSpeed(0)
	cm := e.SoundSpeed(e.Depth / 2)
	c1 := e.SoundSpeed(e.Depth)
	return (c0 + 4*cm + c1) / 6
}
