package dsp

import (
	"fmt"
	"math"
)

// CFIR is a finite-impulse-response filter with complex taps, needed when a
// complex-baseband response must differ between positive and negative
// frequencies (a real-tap filter is always conjugate-symmetric). Streaming
// state carries the last len(taps)-1 inputs from one call to the next.
type CFIR struct {
	taps  []complex128
	state []complex128 // previous len(taps)-1 inputs, oldest first
}

// NewCFIR builds a complex-tap filter (the taps slice is copied).
func NewCFIR(taps []complex128) *CFIR {
	if len(taps) == 0 {
		panic("dsp: NewCFIR requires at least one tap")
	}
	t := make([]complex128, len(taps))
	copy(t, taps)
	return &CFIR{taps: t, state: make([]complex128, len(taps)-1)}
}

// Reset clears the filter state.
func (f *CFIR) Reset() {
	for i := range f.state {
		f.state[i] = 0
	}
}

// Taps returns a copy of the filter's complex taps. The returned slice is
// the caller's to keep; it can seed NewCFIR to clone the filter design
// without re-running NoiseShapingFIR (the channel layer caches designed
// taps per environment and builds per-link filters from them).
func (f *CFIR) Taps() []complex128 {
	t := make([]complex128, len(f.taps))
	copy(t, f.taps)
	return t
}

// ProcessInto filters x into dst (equal length).
//
// Aliasing contract: dst and x may be the SAME slice (in-place filtering,
// the channel noise shaper's steady-state path) because every input sample
// is copied into the state ring before its output slot is written, so the
// convolution only ever reads raw inputs from the ring, never from dst.
// Partially overlapping slices (dst sharing some but not all backing
// elements with x, at an offset) are NOT supported: a shifted write would
// overwrite inputs the ring has not yet captured. TestCFIRInPlace pins the
// identical-slice guarantee against the two-buffer reference.
func (f *CFIR) ProcessInto(dst, x []complex128) {
	if len(dst) != len(x) {
		panic("dsp: CFIR ProcessInto length mismatch")
	}
	nt := len(f.taps)
	ns := nt - 1
	if ns == 0 {
		g := f.taps[0]
		for i, v := range x {
			dst[i] = g * v
		}
		return
	}
	head := 0
	for i := 0; i < len(x); i++ {
		xi := x[i]
		acc := f.taps[0] * xi
		idx := head + ns - 1
		for k := 1; k < nt; k++ {
			j := idx - (k - 1)
			if j >= ns {
				j -= ns
			}
			if j < 0 {
				j += ns
			}
			acc += f.taps[k] * f.state[j]
		}
		f.state[head] = xi
		head++
		if head == ns {
			head = 0
		}
		dst[i] = acc
	}
	if head != 0 {
		rot := make([]complex128, ns)
		copy(rot, f.state[head:])
		copy(rot[ns-head:], f.state[:head])
		copy(f.state, rot)
	}
}

// NoiseShapingFIR designs a linear-phase FIR whose squared magnitude
// response approximates a target power spectral density, by frequency
// sampling: the PSD is sampled on nBins uniform bins over the full sample
// rate (bin k at frequency k·fs/nBins, negative frequencies in the upper
// half per DFT convention), the zero-phase impulse response is recovered by
// inverse FFT, centered, truncated to nTaps and windowed.
//
// The channel simulator uses it to color ambient noise to the Wenz
// spectrum: white Gaussian noise filtered by this FIR acquires the target
// spectral shape while the filter's normalization (below) preserves total
// power.
func NoiseShapingFIR(psd []float64, nTaps int, w Window) (*CFIR, error) {
	n := len(psd)
	if n < 8 {
		return nil, fmt.Errorf("dsp: noise shaping needs >= 8 PSD bins, got %d", n)
	}
	if nTaps < 3 || nTaps > n {
		return nil, fmt.Errorf("dsp: tap count %d outside [3, %d]", nTaps, n)
	}
	if nTaps%2 == 0 {
		return nil, fmt.Errorf("dsp: tap count %d must be odd (linear phase)", nTaps)
	}
	var mean float64
	spec := make([]complex128, n)
	for k, p := range psd {
		if p < 0 {
			return nil, fmt.Errorf("dsp: negative PSD bin %d", k)
		}
		spec[k] = complex(math.Sqrt(p), 0)
		mean += p
	}
	mean /= float64(n)
	// Zero-phase impulse response; complex in general — an asymmetric
	// baseband PSD (the usual case around a carrier) requires complex taps.
	h := IFFT(spec)
	taps := make([]complex128, nTaps)
	half := nTaps / 2
	win := w.Coefficients(nTaps)
	for i := range taps {
		// Center the response: tap i holds lag i-half (circular indexing).
		lag := i - half
		idx := ((lag % n) + n) % n
		taps[i] = h[idx] * complex(win[i], 0)
	}
	f := NewCFIR(taps)
	// Normalize so white noise of power P comes out with power P·mean(psd):
	// white-noise output power = input power × Σ|taps|².
	var e float64
	for _, t := range f.taps {
		e += real(t)*real(t) + imag(t)*imag(t)
	}
	if e <= 0 {
		return nil, fmt.Errorf("dsp: degenerate shaping filter")
	}
	g := complex(math.Sqrt(mean/e), 0)
	for i := range f.taps {
		f.taps[i] *= g
	}
	return f, nil
}
