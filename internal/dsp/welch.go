package dsp

import "fmt"

// WelchPSD estimates the power spectral density of x by Welch's method:
// the signal is split into windowed segments of length nfft with 50%
// overlap, each segment's periodogram is computed, and the periodograms are
// averaged. The result has nfft bins following the DFT frequency
// convention (bins above nfft/2 are negative frequencies) and is
// normalized so that the sum over bins equals the mean signal power.
//
// Welch averaging trades frequency resolution for variance: single
// periodograms of noise have 100% relative variance per bin, useless for
// verifying spectral shapes like the channel's Wenz coloring.
func WelchPSD(x []complex128, nfft int, w Window) ([]float64, error) {
	if nfft < 8 {
		return nil, fmt.Errorf("dsp: welch needs nfft >= 8, got %d", nfft)
	}
	if len(x) < nfft {
		return nil, fmt.Errorf("dsp: welch needs at least one segment (%d samples), have %d", nfft, len(x))
	}
	hop := nfft / 2
	win := w.Coefficients(nfft)
	// Window power normalization: each segment is scaled so a white input
	// of power P yields Σbins = P.
	var winE float64
	for _, v := range win {
		winE += v * v
	}
	out := make([]float64, nfft)
	seg := make([]complex128, nfft)
	count := 0
	for off := 0; off+nfft <= len(x); off += hop {
		for i := 0; i < nfft; i++ {
			seg[i] = x[off+i] * complex(win[i], 0)
		}
		FFTInto(seg, seg) // windowed copy is rebuilt next pass anyway
		for i, v := range seg {
			out[i] += real(v)*real(v) + imag(v)*imag(v)
		}
		count++
	}
	norm := 1 / (float64(count) * winE * float64(nfft))
	for i := range out {
		out[i] *= norm
	}
	return out, nil
}

// BandPower integrates a PSD (as returned by WelchPSD) over the frequency
// band [loHz, hiHz) given the sample rate, handling negative frequencies
// per the DFT convention.
func BandPower(psd []float64, fsHz, loHz, hiHz float64) float64 {
	n := len(psd)
	var p float64
	for i, v := range psd {
		f := float64(i) * fsHz / float64(n)
		if i > n/2 {
			f -= fsHz
		}
		if f >= loHz && f < hiHz {
			p += v
		}
	}
	return p
}
