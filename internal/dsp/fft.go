package dsp

import (
	"math/cmplx"

	"vab/internal/telemetry"
)

// IFFT returns the inverse DFT of x (with 1/n normalization).
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	IFFTInto(out, x)
	return out
}

// FFTInto computes the DFT of src into dst without allocating (after the
// size's plan is cached). The slices must have equal length and either be
// identical (in-place transform) or not overlap. Power-of-two lengths use
// an iterative radix-2 Cooley-Tukey transform; other lengths fall back to
// Bluestein's algorithm, so any length is supported in O(n log n). Twiddle,
// permutation and chirp tables are cached per size (see plan.go), so
// repeated transforms of the same length do no trigonometry.
func FFTInto(dst, src []complex128) {
	transformInto(dst, src, false)
}

// IFFTInto computes the inverse DFT (with 1/n normalization) of src into
// dst under the same aliasing rules as FFTInto.
func IFFTInto(dst, src []complex128) {
	transformInto(dst, src, true)
}

func transformInto(dst, src []complex128, inverse bool) {
	n := len(src)
	if len(dst) != n {
		panic("dsp: FFTInto length mismatch")
	}
	if n == 0 {
		return
	}
	if n == 1 {
		dst[0] = src[0]
		return
	}
	sp := telemetry.StartSpan(metFFTTime)
	if IsPow2(n) {
		p := radix2PlanFor(n)
		if &dst[0] == &src[0] {
			p.inPlace(dst, inverse)
		} else {
			p.into(dst, src, inverse)
		}
	} else {
		bluesteinPlanFor(n).into(dst, src, inverse)
	}
	if inverse {
		s := complex(1/float64(n), 0)
		for i := range dst {
			dst[i] *= s
		}
	}
	sp.End()
}

// RFFTInto computes the DFT of the real sequence x into dst
// (len(dst) == len(x)), the full complex spectrum. Even lengths use the
// half-size packing trick: the real sequence is folded into a complex
// sequence of half the length, transformed once, and the spectrum unpacked
// from the fold's conjugate symmetry — roughly halving the work of the
// naive real-as-complex path. Once the size's plan is cached it allocates
// nothing. dst must not overlap x's backing array (they have different
// element types, so they never do in practice).
func RFFTInto(dst []complex128, x []float64) {
	n := len(x)
	if len(dst) != n {
		panic("dsp: RFFTInto length mismatch")
	}
	if n == 0 {
		return
	}
	if n%2 != 0 || n < 4 {
		// Odd or tiny lengths: widen in place and transform (FFTInto and
		// the Bluestein plan both tolerate dst == src).
		for i, v := range x {
			dst[i] = complex(v, 0)
		}
		FFTInto(dst, dst)
		return
	}
	h := n / 2
	s := getScratch(h)
	z := s.buf
	for k := 0; k < h; k++ {
		z[k] = complex(x[2*k], x[2*k+1])
	}
	FFTInto(z, z)

	// Unpack: with Z the half-size DFT of z[k] = x[2k] + i·x[2k+1],
	//   Xe[k] = (Z[k] + conj(Z[h-k]))/2        (spectrum of the even samples)
	//   Xo[k] = (Z[k] - conj(Z[h-k]))/(2i)     (spectrum of the odd samples)
	//   X[k]  = Xe[k] + e^{-2πik/n}·Xo[k]
	// and the upper half follows from real-input conjugate symmetry.
	var tw []complex128 // e^{-2πik/n} for k < h; the radix-2 table when cached
	if IsPow2(n) {
		tw = radix2PlanFor(n).wFwd
	}
	for k := 1; k < h; k++ {
		ze := (z[k] + cmplx.Conj(z[h-k])) * 0.5
		zo := (z[k] - cmplx.Conj(z[h-k])) * complex(0, -0.5)
		var w complex128
		if tw != nil {
			w = tw[k]
		} else {
			w = cmplx.Rect(1, -Tau*float64(k)/float64(n))
		}
		dst[k] = ze + w*zo
	}
	dst[0] = complex(real(z[0])+imag(z[0]), 0)
	dst[h] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k < h; k++ {
		dst[n-k] = cmplx.Conj(dst[k])
	}
	putScratch(s)
}

// ConvolveInto computes the full linear convolution of a and b into dst,
// which must have length len(a)+len(b)-1, via FFT. Once the transform
// size's plan is cached it allocates nothing. dst may alias a or b (the products are formed entirely in
// pooled scratch before dst is written).
func ConvolveInto(dst, a, b []complex128) {
	if len(a) == 0 || len(b) == 0 {
		if len(dst) != 0 {
			panic("dsp: ConvolveInto length mismatch")
		}
		return
	}
	n := len(a) + len(b) - 1
	if len(dst) != n {
		panic("dsp: ConvolveInto length mismatch")
	}
	m := NextPow2(n)
	p := radix2PlanFor(m)
	sa, sb := getScratch(m), getScratch(m)
	fa, fb := sa.buf, sb.buf
	copy(fa, a)
	for i := len(a); i < m; i++ {
		fa[i] = 0
	}
	copy(fb, b)
	for i := len(b); i < m; i++ {
		fb[i] = 0
	}
	p.inPlace(fa, false)
	p.inPlace(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.inPlace(fa, true)
	inv := complex(1/float64(m), 0)
	for i := range dst {
		dst[i] = fa[i] * inv
	}
	putScratch(sa)
	putScratch(sb)
}
