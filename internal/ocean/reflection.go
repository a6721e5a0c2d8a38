package ocean

import (
	"math"
	"math/cmplx"
)

// BottomReflection returns the complex Rayleigh reflection coefficient of
// the bottom half-space at grazing angle theta (radians, measured from the
// horizontal). The bottom is modeled as a fluid with the environment's
// density and sound speed; beyond the critical angle the coefficient becomes
// complex with |R| = 1 (total internal reflection), below it energy
// penetrates the sediment. The environment's BottomLossDB is applied as an
// additional per-bounce magnitude loss to account for scattering and
// sediment inhomogeneity.
func (e *Environment) BottomReflection(theta float64) complex128 {
	c1 := e.MeanSoundSpeed()
	c2 := e.BottomSoundSpeed
	rho1 := WaterDensity
	rho2 := e.BottomDensity

	sin1 := math.Sin(theta)
	cos1 := math.Cos(theta)
	if sin1 < 1e-9 {
		// Grazing limit: any impedance contrast reflects perfectly with
		// phase reversal.
		return complex(-1, 0)
	}
	// Snell: cosθ2 = (c2/c1)·cosθ1; sinθ2 may be imaginary past critical.
	cos2 := c2 / c1 * cos1
	sin2sq := complex(1-cos2*cos2, 0)
	sin2 := cmplx.Sqrt(sin2sq) // principal branch: +imag for evanescent

	z1 := complex(rho1*c1, 0) / complex(sin1, 0)
	z2 := complex(rho2*c2, 0) / sin2
	r := (z2 - z1) / (z2 + z1)

	if e.BottomLossDB > 0 {
		r *= complex(math.Pow(10, -e.BottomLossDB/20), 0)
	}
	return r
}

// SurfaceReflection returns the complex reflection coefficient of the sea
// surface at grazing angle theta and frequency fHz. The flat surface is a
// pressure-release boundary (R = −1); roughness from surface waves reduces
// the coherent component by the Rayleigh roughness factor
// exp(−2(kσ·sinθ)²) with σ the RMS wave height.
func (e *Environment) SurfaceReflection(theta, fHz float64) complex128 {
	k := 2 * math.Pi * fHz / e.MeanSoundSpeed()
	g := k * e.WaveRMS * math.Sin(theta)
	loss := math.Exp(-2 * g * g)
	return complex(-loss, 0)
}
