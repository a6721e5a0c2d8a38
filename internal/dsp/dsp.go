// Package dsp provides the digital signal processing primitives used by the
// VAB simulation stack: FFTs, complex-tap noise-shaping filters, Goertzel
// tone detection, window functions, correlation, Welch PSD estimates, and
// basic statistics over real and complex sequences.
//
// All routines are allocation-conscious: the hot paths (filtering, Goertzel,
// correlation) operate on caller-provided slices and avoid per-sample
// allocation so they can run inside Monte-Carlo loops.
package dsp

import (
	"math"
)

// Tau is the circle constant 2π.
const Tau = 2 * math.Pi

// NextPow2 returns the smallest power of two >= n. NextPow2(0) == 1.
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Energy returns the sum of squared magnitudes of x.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Scale multiplies x by a real gain in place.
func Scale(x []complex128, g float64) {
	for i := range x {
		x[i] *= complex(g, 0)
	}
}

// AddInto accumulates src into dst element-wise. The slices must have equal
// length.
func AddInto(dst, src []complex128) {
	if len(dst) != len(src) {
		panic("dsp: AddInto length mismatch")
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// MixInto accumulates g*src into dst element-wise starting at dst[off].
// Samples of src that fall outside dst are dropped. The overlap region is
// clipped up front so the inner loop carries no per-sample bounds logic;
// the accumulation order (ascending source index) is unchanged, so results
// are bit-identical to the naive loop.
func MixInto(dst, src []complex128, off int, g complex128) {
	start := 0
	if off < 0 {
		start = -off
	}
	end := len(src)
	if rem := len(dst) - off; rem < end {
		end = rem
	}
	if start >= end {
		return
	}
	d := dst[off+start : off+end]
	s := src[start:end]
	for i, v := range s {
		d[i] += g * v
	}
}
