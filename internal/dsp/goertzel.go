package dsp

import "math/cmplx"

// Goertzel evaluates a single DFT bin over fixed-length blocks, the
// work-horse of the noncoherent FSK demodulator: per bit interval the
// receiver compares Goertzel energy at the two subcarrier frequencies.
// It is O(n) per block with two multiplies per sample, far cheaper than an
// FFT when only a handful of bins are needed.
type Goertzel struct {
	coeff complex128 // e^{j2πf/fs}
}

// NewGoertzel constructs a detector for frequency fHz at sample rate fsHz.
// fHz may be negative (lower sideband at complex baseband).
func NewGoertzel(fHz, fsHz float64) *Goertzel {
	return &Goertzel{coeff: cmplx.Rect(1, Tau*fHz/fsHz)}
}

// Correlate returns the complex correlation of block x against the tone:
// sum x[n]·e^{-j2πfn/fs}. For complex input this is an exact single-bin DFT.
func (g *Goertzel) Correlate(x []complex128) complex128 {
	// Direct complex heterodyne accumulation: numerically robust and just as
	// fast as the classic two-real-multiplies recursion for complex input.
	w := complex(1, 0)
	conjStep := cmplx.Conj(g.coeff)
	var acc complex128
	for _, v := range x {
		acc += v * w
		w *= conjStep
	}
	return acc
}

// Energy returns |Correlate(x)|², the tone energy in the block.
func (g *Goertzel) Energy(x []complex128) float64 {
	return sq(g.Correlate(x))
}

// ToneBank correlates blocks against a fixed set of tones, returning the
// per-tone energies. Used for M-ary FSK detection.
//
// Each tone's heterodyne sequence w₀ = 1, wₖ₊₁ = wₖ·conj(coeff) is built
// once, with the repeated multiply Goertzel.Correlate runs per sample, and
// stored for blocks of up to the length given at construction. Energies
// then reads the table instead of carrying that multiply chain from sample
// to sample, and accumulates two tones per pass over the block, so the
// binary receiver's pair of tones costs one pass. Every accumulator sees
// the same operands in the same order as Correlate, so the energies are
// bit-identical to Goertzel.Energy. The bank is immutable after
// construction and safe to share.
type ToneBank struct {
	tones int
	block int
	tw    []complex128 // tone t's sequence at tw[t*block : (t+1)*block]
}

// NewToneBank builds the twiddle tables for each frequency in freqsHz, for
// blocks of up to blockLen samples.
func NewToneBank(freqsHz []float64, fsHz float64, blockLen int) *ToneBank {
	tb := &ToneBank{
		tones: len(freqsHz),
		block: blockLen,
		tw:    make([]complex128, len(freqsHz)*blockLen),
	}
	for t, f := range freqsHz {
		conjStep := cmplx.Conj(NewGoertzel(f, fsHz).coeff)
		w := complex(1, 0)
		for i := range tb.tw[t*blockLen : (t+1)*blockLen] {
			tb.tw[t*blockLen+i] = w
			w *= conjStep
		}
	}
	return tb
}

// Energies fills dst (which must have one entry per tone) with the tone
// energies of block x. x may be shorter than the bank's block length, not
// longer.
func (tb *ToneBank) Energies(dst []float64, x []complex128) {
	if len(dst) != tb.tones {
		panic("dsp: ToneBank.Energies dst length mismatch")
	}
	if len(x) > tb.block {
		panic("dsp: ToneBank.Energies block longer than the bank's tables")
	}
	t := 0
	for ; t+1 < tb.tones; t += 2 {
		w0 := tb.tw[t*tb.block:][:len(x)]
		w1 := tb.tw[(t+1)*tb.block:][:len(x)]
		var a0, a1 complex128
		for i, v := range x {
			a0 += v * w0[i]
			a1 += v * w1[i]
		}
		dst[t], dst[t+1] = sq(a0), sq(a1)
	}
	if t < tb.tones {
		w := tb.tw[t*tb.block:][:len(x)]
		var a complex128
		for i, v := range x {
			a += v * w[i]
		}
		dst[t] = sq(a)
	}
}
