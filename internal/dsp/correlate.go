package dsp

import (
	"math"
	"math/cmplx"

	"vab/internal/telemetry"
)

// XCorrInto computes the cross-correlation of x against reference ref at
// every alignment where ref fits fully inside x:
//
//	dst[k] = Σ_n x[k+n]·conj(ref[n]),  k = 0 … len(x)-len(ref)
//
// dst must have length len(x)-len(ref)+1. It is the sliding matched filter
// used for preamble acquisition. Short references use the direct method,
// writing straight into dst; long ones go through FFT convolution on
// pooled scratch buffers before the valid region is copied out.
func XCorrInto(dst []complex128, x, ref []complex128) {
	if len(ref) == 0 || len(x) < len(ref) {
		return
	}
	nOut := len(x) - len(ref) + 1
	if len(dst) != nOut {
		panic("dsp: XCorrInto length mismatch")
	}
	sp := telemetry.StartSpan(metXCorrTime)
	defer sp.End()
	// Heuristic: direct O(n·m) beats FFT for small m.
	if len(ref) <= 64 {
		for k := 0; k < nOut; k++ {
			var acc complex128
			for n, r := range ref {
				acc += x[k+n] * cmplx.Conj(r)
			}
			dst[k] = acc
		}
		return
	}
	// FFT path: correlation = convolution with the conjugated, reversed ref,
	// computed as one circular convolution on pooled scratch (the body of
	// ConvolveInto, inlined so the full-length result never escapes the
	// pool).
	m := len(ref)
	n := len(x) + m - 1
	fftLen := NextPow2(n)
	p := radix2PlanFor(fftLen)
	sa, sb := getScratch(fftLen), getScratch(fftLen)
	fa, fb := sa.buf, sb.buf
	copy(fa, x)
	for i := len(x); i < fftLen; i++ {
		fa[i] = 0
	}
	for i, r := range ref {
		fb[m-1-i] = cmplx.Conj(r)
	}
	for i := m; i < fftLen; i++ {
		fb[i] = 0
	}
	p.inPlace(fa, false)
	p.inPlace(fb, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.inPlace(fa, true)
	inv := complex(1/float64(fftLen), 0)
	// Valid region starts at m-1.
	for k := 0; k < nOut; k++ {
		dst[k] = fa[m-1+k] * inv
	}
	putScratch(sa)
	putScratch(sb)
}

// NormXCorrInto writes the normalized cross-correlation magnitude in
// [0, 1], |xcorr| / (|x window| · |ref|), into dst, which must have length
// len(x)-len(ref)+1. A peak near 1 indicates a clean preamble hit
// regardless of channel gain. The raw correlation lives on a pooled
// scratch buffer, so the steady state allocates nothing.
func NormXCorrInto(dst []float64, x, ref []complex128) {
	if len(ref) == 0 || len(x) < len(ref) {
		return
	}
	nOut := len(x) - len(ref) + 1
	if len(dst) != nOut {
		panic("dsp: NormXCorrInto length mismatch")
	}
	sr := getScratch(nOut)
	raw := sr.buf
	XCorrInto(raw, x, ref)
	normalizeXCorr(dst, raw, x, ref, Energy(ref))
	putScratch(sr)
}

// normalizeXCorr turns raw correlation values into normalized magnitudes:
// |xcorr|² / (window energy · reference energy), then sqrt. Shared by the
// one-shot and cached-reference paths so both produce identical floats.
func normalizeXCorr(dst []float64, raw []complex128, x, ref []complex128, refE float64) {
	if refE == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	// Sliding window energy of x.
	var winE float64
	m := len(ref)
	for i := 0; i < m; i++ {
		winE += sq(x[i])
	}
	for k := range raw[:len(dst)] {
		dst[k] = 0
		den := winE * refE
		if den > 0 {
			c := raw[k]
			dst[k] = (real(c)*real(c) + imag(c)*imag(c)) / den
		}
		if k+m < len(x) {
			winE += sq(x[k+m]) - sq(x[k])
			if winE < 0 {
				winE = 0
			}
		}
	}
	// Return sqrt so values are amplitude-normalized correlation.
	for i, v := range dst {
		dst[i] = sqrt64(v)
	}
}

// Correlator performs repeated cross-correlations against one fixed
// reference (a matched filter): the conjugated-reversed reference spectrum
// is computed once per transform size and cached, saving one full FFT per
// correlation versus XCorrInto. Results are bit-identical to XCorrInto /
// NormXCorrInto — the cached spectrum is exactly what those compute per
// call — so a seeded pipeline can adopt it without perturbing transcripts.
// Its work buffers are its own rather than pooled, so steady-state
// correlations allocate nothing in every build (the race detector drops
// pooled items on purpose). Not safe for concurrent use.
type Correlator struct {
	ref  []complex128
	refE float64

	fftLen int          // transform size the cached spectrum is valid for
	spec   []complex128 // FFT of conj-reversed zero-padded ref, length fftLen
	work   []complex128 // FFT work buffer; xcorr returns a view into it
}

// NewCorrelator builds a matched filter for ref (the slice is copied).
func NewCorrelator(ref []complex128) *Correlator {
	r := make([]complex128, len(ref))
	copy(r, ref)
	return &Correlator{ref: r, refE: Energy(r)}
}

// specFor returns the cached reference spectrum for fftLen, computing it on
// first use (and whenever the capture length changes the transform size —
// steady-state pipelines have one fixed size, so this is one FFT ever).
func (c *Correlator) specFor(fftLen int) []complex128 {
	if c.fftLen == fftLen {
		return c.spec
	}
	if cap(c.spec) < fftLen {
		c.spec = make([]complex128, fftLen)
	}
	c.spec = c.spec[:fftLen]
	m := len(c.ref)
	for i, r := range c.ref {
		c.spec[m-1-i] = cmplx.Conj(r)
	}
	for i := m; i < fftLen; i++ {
		c.spec[i] = 0
	}
	radix2PlanFor(fftLen).inPlace(c.spec, false)
	c.fftLen = fftLen
	return c.spec
}

// XCorrInto computes the cross-correlation of x against the reference into
// dst (length len(x)-len(ref)+1), allocation-free in steady state and
// bit-identical to the package-level XCorrInto.
func (c *Correlator) XCorrInto(dst, x []complex128) {
	if len(c.ref) == 0 || len(x) < len(c.ref) {
		return
	}
	if len(dst) != len(x)-len(c.ref)+1 {
		panic("dsp: Correlator XCorrInto length mismatch")
	}
	copy(dst, c.xcorr(x))
}

// NormXCorrInto is the normalized form (see package-level NormXCorrInto),
// using the cached reference spectrum and energy.
func (c *Correlator) NormXCorrInto(dst []float64, x []complex128) {
	if len(c.ref) == 0 || len(x) < len(c.ref) {
		return
	}
	if len(dst) != len(x)-len(c.ref)+1 {
		panic("dsp: Correlator NormXCorrInto length mismatch")
	}
	normalizeXCorr(dst, c.xcorr(x), x, c.ref, c.refE)
}

// xcorr correlates x (at least as long as the reference) in the work
// buffer and returns the len(x)-len(ref)+1 raw outputs, a view into that
// buffer valid until the next call.
func (c *Correlator) xcorr(x []complex128) []complex128 {
	sp := telemetry.StartSpan(metXCorrTime)
	defer sp.End()
	m := len(c.ref)
	nOut := len(x) - m + 1
	if m <= 64 {
		c.work = resize(c.work, nOut)
		out := c.work
		for k := range out {
			var acc complex128
			for n, r := range c.ref {
				acc += x[k+n] * cmplx.Conj(r)
			}
			out[k] = acc
		}
		return out
	}
	fftLen := NextPow2(len(x) + m - 1)
	fb := c.specFor(fftLen)
	p := radix2PlanFor(fftLen)
	c.work = resize(c.work, fftLen)
	fa := c.work
	copy(fa, x)
	for i := len(x); i < fftLen; i++ {
		fa[i] = 0
	}
	p.inPlace(fa, false)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p.inPlace(fa, true)
	out := fa[m-1 : m-1+nOut]
	inv := complex(1/float64(fftLen), 0)
	for k := range out {
		out[k] *= inv
	}
	return out
}

// resize returns buf with length n, reallocated only when it is too
// small; the contents are arbitrary.
func resize(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// NormXCorrAt is one value of NormXCorrInto, the normalized correlation
// at lag k, computed directly in O(len(ref)): for a caller that needs a
// handful of lags around a known peak rather than the whole surface. It
// agrees with NormXCorrInto to rounding, not bit for bit. k must satisfy
// 0 ≤ k ≤ len(x)-len(ref).
func (c *Correlator) NormXCorrAt(x []complex128, k int) float64 {
	if c.refE == 0 {
		return 0
	}
	var acc complex128
	var winE float64
	for n, r := range c.ref {
		v := x[k+n]
		acc += v * cmplx.Conj(r)
		winE += sq(v)
	}
	den := winE * c.refE
	if den <= 0 {
		return 0
	}
	return sqrt64(sq(acc) / den)
}

func sq(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

func sqrt64(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// ArgMax returns the index of the largest element of a real slice (the
// first, on a tie).
func ArgMax(x []float64) int {
	idx := 0
	best := x[0]
	for i, v := range x {
		if v > best {
			best = v
			idx = i
		}
	}
	return idx
}
