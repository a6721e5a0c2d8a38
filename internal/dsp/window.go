package dsp

import "math"

// Window identifies a tapering window function.
type Window int

// Supported window functions.
const (
	Rectangular Window = iota
	Hann
	Hamming
	Blackman
	BlackmanHarris
)

// Coefficients returns the n window coefficients using the symmetric
// convention (endpoints included), suitable for FIR design.
func (w Window) Coefficients(n int) []float64 {
	c := make([]float64, n)
	if n == 1 {
		c[0] = 1
		return c
	}
	den := float64(n - 1)
	for i := 0; i < n; i++ {
		t := float64(i) / den
		switch w {
		case Rectangular:
			c[i] = 1
		case Hann:
			c[i] = 0.5 - 0.5*math.Cos(Tau*t)
		case Hamming:
			c[i] = 0.54 - 0.46*math.Cos(Tau*t)
		case Blackman:
			c[i] = 0.42 - 0.5*math.Cos(Tau*t) + 0.08*math.Cos(2*Tau*t)
		case BlackmanHarris:
			c[i] = 0.35875 - 0.48829*math.Cos(Tau*t) +
				0.14128*math.Cos(2*Tau*t) - 0.01168*math.Cos(3*Tau*t)
		default:
			c[i] = 1
		}
	}
	return c
}
