package channel

import (
	"math"

	"vab/internal/dsp"
)

// TDL applies a tapped delay line with the common bulk delay removed (the
// relative-delay convolution Downlink and Uplink use). Two engines are
// available:
//
//   - Time domain (mixTaps): every tap in tap order over L1-sized output
//     tiles. This is the reference arithmetic, and the engine every Link
//     uses — seeded simulations are byte-identical to the historical
//     one-pass-per-tap applyTDL loop. On a 16,384-sample block it costs
//     about 10 µs per tap on a 2-vCPU AMD EPYC (BenchmarkTDLTime4/16/64:
//     about 42, 165 and 670 µs; the untiled loop took 54, 211 and 851).
//   - Frequency domain (NewTDL only): overlap-save block convolution
//     against the FFT of the dense tap kernel, reusing the dsp plan cache.
//     Cost is O(n log L) independent of tap count instead of O(n·taps):
//     about 340 µs on the same block at 4 to 64 taps (BenchmarkTDLFreq*),
//     so it wins past roughly 33 taps and is 1.9× faster at 64. FFT
//     rounding means results match the time engine only to ~1e-13
//     relative error, not bit-exactly, and a Link's few multipath taps sit
//     well below the crossover.
//
// A TDL is not safe for concurrent use (the frequency engine owns scratch
// buffers). Rebuild reuses all storage, so steady-state rebuilds are
// allocation-free.
type TDL struct {
	taps []Tap
	offs []int // each tap's delay in whole samples after the earliest tap
	freq bool

	// Overlap-save state (frequency engine only).
	kernelLen int          // L: dense kernel length, maxOffset+1
	fftSize   int          // M: block transform size (power of two)
	spec      []complex128 // FFT of the zero-padded kernel, length M
	seg       []complex128 // gather/transform segment, length M
}

// NewTDL builds a delay line over the given taps (the slice is referenced,
// not copied; Rebuild after mutating it). frequencyDomain selects the
// overlap-save engine.
func NewTDL(taps []Tap, frequencyDomain bool) *TDL {
	t := &TDL{freq: frequencyDomain}
	t.Rebuild(taps)
	return t
}

// Rebuild points the delay line at a new tap set, recomputing the kernel
// spectrum when the frequency engine is active. All storage is reused: a
// steady-state caller that sways its geometry every round allocates
// nothing here once buffers have grown to their working size.
func (t *TDL) Rebuild(taps []Tap) {
	t.taps = taps
	t.offs = appendTapOffsets(t.offs[:0], taps)
	if !t.freq {
		return
	}
	if len(taps) == 0 {
		t.kernelLen = 0
		return
	}
	maxOff := 0
	for _, off := range t.offs {
		maxOff = max(maxOff, off)
	}
	t.kernelLen = maxOff + 1
	// Block size: a few kernel lengths per transform amortizes the L-1
	// overlap; 256 floors tiny kernels so the FFT stays efficient.
	m := dsp.NextPow2(4 * t.kernelLen)
	if m < 256 {
		m = 256
	}
	t.fftSize = m
	t.spec = growBuf(t.spec, m)
	for i := range t.spec {
		t.spec[i] = 0
	}
	for k, tp := range taps {
		t.spec[t.offs[k]] += tp.Gain
	}
	dsp.FFTInto(t.spec, t.spec)
}

// Apply convolves x with the delay line into dst. dst and x must have equal
// length and must not alias (the gather reads x while dst fills).
func (t *TDL) Apply(dst, x []complex128) {
	if len(dst) != len(x) {
		panic("channel: TDL Apply length mismatch")
	}
	if !t.freq {
		mixTaps(dst, x, t.taps, t.offs)
		return
	}
	if t.kernelLen == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	l, m := t.kernelLen, t.fftSize
	block := m - l + 1
	t.seg = growBuf(t.seg, m)
	seg := t.seg
	n := len(x)
	for pos := 0; pos < n; pos += block {
		// Gather x[pos-(L-1) … pos-(L-1)+M) with zeros outside the signal:
		// overlap-save discards the first L-1 circularly-wrapped outputs.
		lo := pos - (l - 1)
		for i := range seg {
			seg[i] = 0
		}
		from, at := lo, 0
		if from < 0 {
			at = -from
			from = 0
		}
		if from < n {
			copy(seg[at:], x[from:min(n, lo+m)])
		}
		dsp.FFTInto(seg, seg)
		for i := range seg {
			seg[i] *= t.spec[i]
		}
		dsp.IFFTInto(seg, seg)
		b := block
		if pos+b > n {
			b = n - pos
		}
		copy(dst[pos:pos+b], seg[l-1:l-1+b])
	}
}

// appendTapOffsets appends each tap's delay, rounded to whole samples
// relative to the earliest tap, to dst and returns it.
func appendTapOffsets(dst []int, taps []Tap) []int {
	base := math.Inf(1)
	for _, tp := range taps {
		if tp.DelaySamples < base {
			base = tp.DelaySamples
		}
	}
	for _, tp := range taps {
		dst = append(dst, int(math.Round(tp.DelaySamples-base)))
	}
	return dst
}

// tdlTile is the time engine's output tile in samples: 4 KB of partial
// sums, which stay in L1 while every tap adds into them. Tiles of 128 to
// 1,024 samples timed alike on BenchmarkTDLTime4/16/64 (all about 20%
// under the untiled loop); 256 sits in the middle of that range.
const tdlTile = 256

// mixTaps is the time engine and the reference arithmetic seeded
// experiments pin bit-exactly: output sample i is the sum, from zero and in
// tap order, of Gain·x[i-off] over the taps whose offset off is at most i.
// It walks dst in tiles of tdlTile samples and runs every tap over each
// tile before the next, instead of streaming the whole capture once per
// tap; each sample sees the same operands in the same order either way.
// dst and x must have equal length and must not alias.
func mixTaps(dst, x []complex128, taps []Tap, offs []int) {
	for lo := 0; lo < len(dst); lo += tdlTile {
		hi := min(lo+tdlTile, len(dst))
		clear(dst[lo:hi])
		for k, off := range offs {
			if from := max(lo, off); from < hi {
				dsp.MixInto(dst[from:hi], x[from-off:hi-off], 0, taps[k].Gain)
			}
		}
	}
}

// carrierInto is the time engine for an input whose samples are all
// bit-equal to x[0], the reader's unmodulated carrier. Output sample i is
// then the tap-order sum of Gain·x[0] over the taps at offset ≤ i, so every
// sample past the largest offset equals the one at it: the engine runs on
// the head up to that offset, with the same operands in the same order,
// and the last head sample is copied into the rest. It reports false,
// leaving dst untouched, for any other input.
func (t *TDL) carrierInto(dst, x []complex128) bool {
	if len(dst) != len(x) || len(x) == 0 {
		return false
	}
	re, im := math.Float64bits(real(x[0])), math.Float64bits(imag(x[0]))
	for _, v := range x[1:] {
		if math.Float64bits(real(v)) != re || math.Float64bits(imag(v)) != im {
			return false
		}
	}
	last := 0
	for _, off := range t.offs {
		last = max(last, off)
	}
	last = min(last, len(x)-1)
	mixTaps(dst[:last+1], x[:last+1], t.taps, t.offs)
	for i := last + 1; i < len(dst); i++ {
		dst[i] = dst[last]
	}
	return true
}
