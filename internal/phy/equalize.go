package phy

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Decision-feedback equalization for the backscatter uplink. Shallow
// waveguides throw echoes a chip or more late (a sub-critical bottom bounce
// arrives with near-unity reflection); within a Goertzel window such an
// echo deposits the *previous* chips' tone energy and caps the SIR no
// matter how strong the signal is. The equalizer runs one feedback round:
//
//  1. demodulate and reconstruct the burst's waveform from the decisions;
//  2. jointly least-squares fit the channel's complex gain at a grid of
//     candidate delays (shifted copies of the reconstruction as
//     regressors), subtract every late path from the capture, and
//     demodulate again on the cleaned signal.
//
// (Without a ground-truth quality signal, extra rounds can wander off a
// good answer; one round measured best.)
//
// The joint fit matters: shifted copies of an FSK burst are mutually
// correlated (half the chips repeat a frequency), so independent
// correlations would hallucinate echoes; solving the normal equations
// attributes the energy correctly.

// reconstruct renders the waveform the capture actually contains for a
// unit-gain path carrying the given payload chips: the modulator's 0/1
// square toggle (preamble plus chips, phase-continuous, harmonics and all)
// passed through the same comb notch the receiver applied to the capture.
// Matching the true waveform matters for the least-squares fit — a
// fundamental-only template leaves the square wave's harmonic energy to be
// misattributed to phantom echoes.
func (d *Demodulator) reconstruct(chips []byte) []complex128 {
	spc := d.p.SamplesPerChip()
	out := make([]complex128, 0, (len(d.p.PreambleSeq)+len(chips))*spc)
	phase := 0.0
	emit := func(f float64) {
		for s := 0; s < spc; s++ {
			v := 0.0
			if math.Sin(phase) >= 0 {
				v = 1
			}
			out = append(out, complex(v, 0))
			phase += 2 * math.Pi * f / d.p.SampleRate
		}
	}
	for _, v := range d.p.PreambleSeq {
		c := byte(0)
		if v > 0 {
			c = 1
		}
		emit(d.p.chipFreq(c))
	}
	for _, c := range chips {
		emit(d.p.chipFreq(c))
	}
	return d.Suppress(out)
}

// estimatePaths solves the least-squares channel fit: y ≈ Σ_k g_k·wave
// shifted by offsets[k], over the burst extent. Returns the complex gains
// aligned with offsets.
func estimatePaths(y, wave []complex128, start int, offsets []int) ([]complex128, error) {
	k := len(offsets)
	col := func(i, t int) complex128 {
		// Sample t of regressor i (wave shifted by offsets[i]).
		j := t - offsets[i]
		if j < 0 || j >= len(wave) {
			return 0
		}
		return wave[j]
	}
	// Fit extent: the burst plus the largest offset.
	maxOff := 0
	for _, o := range offsets {
		if o > maxOff {
			maxOff = o
		}
	}
	n := len(wave) + maxOff
	if start < 0 || start+n > len(y) {
		n = len(y) - start
		if n <= len(wave)/2 {
			return nil, fmt.Errorf("phy: capture too short for channel fit")
		}
	}
	// Normal equations A^H A g = A^H y.
	ata := make([][]complex128, k)
	aty := make([]complex128, k)
	for i := range ata {
		ata[i] = make([]complex128, k)
	}
	for t := 0; t < n; t++ {
		yt := y[start+t]
		for i := 0; i < k; i++ {
			ci := col(i, t)
			if ci == 0 {
				continue
			}
			cci := cmplx.Conj(ci)
			aty[i] += cci * yt
			for j := i; j < k; j++ {
				ata[i][j] += cci * col(j, t)
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			ata[i][j] = cmplx.Conj(ata[j][i])
		}
	}
	g, err := solveHermitian(ata, aty)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// solveHermitian solves A·x = b for a small dense complex system by
// Gaussian elimination with partial pivoting.
func solveHermitian(a [][]complex128, b []complex128) ([]complex128, error) {
	n := len(a)
	// Work on copies.
	m := make([][]complex128, n)
	for i := range m {
		m[i] = append([]complex128(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for c := 0; c < n; c++ {
		// Pivot.
		p := c
		for r := c + 1; r < n; r++ {
			if cmplx.Abs(m[r][c]) > cmplx.Abs(m[p][c]) {
				p = r
			}
		}
		if cmplx.Abs(m[p][c]) < 1e-18 {
			return nil, fmt.Errorf("phy: singular channel-fit system")
		}
		m[c], m[p] = m[p], m[c]
		piv := m[c][c]
		for j := c; j <= n; j++ {
			m[c][j] /= piv
		}
		for r := 0; r < n; r++ {
			if r == c || m[r][c] == 0 {
				continue
			}
			f := m[r][c]
			for j := c; j <= n; j++ {
				m[r][j] -= f * m[c][j]
			}
		}
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x, nil
}

// EqualizeAndDemod runs the two-pass decision-feedback equalizer: a plain
// demodulation pass, a joint least-squares channel fit over half-chip
// delay candidates out to maxEchoChips, ISI subtraction, and a second
// demodulation on the cleaned capture. It returns the second-pass
// decisions, or the first pass unchanged when the channel needs no
// equalization.
func (d *Demodulator) EqualizeAndDemod(y []complex128, acq Acquisition, n, maxEchoChips int) ([]SoftChip, error) {
	soft, err := d.DemodChips(y, acq, n)
	if err != nil {
		return nil, err
	}
	wave, gains := d.echoGains(y, soft, acq.Start, maxEchoChips)
	if gains == nil {
		return soft, nil
	}
	half := d.p.SamplesPerChip() / 2
	clean := append([]complex128(nil), y...)
	for k := 1; k < len(gains); k++ {
		if gains[k] == 0 {
			continue
		}
		lo := acq.Start + k*half
		for t, w := range wave {
			j := lo + t
			if j < 0 {
				continue
			}
			if j >= len(clean) {
				break
			}
			clean[j] -= gains[k] * w
		}
	}
	// Re-demodulate without echo combining: the late paths are cancelled,
	// so only the main-arrival window carries clean signal.
	acq.Peaks = nil
	return d.DemodChips(clean, acq, n)
}

// echoGains reconstructs the waveform of the decisions soft and jointly
// fits the channel's complex gain at delays k half-chips after start, k = 0
// (the main path) up to 2·maxEchoChips. It returns the reconstruction and
// the gains by k, with every late path at or below 0.15 of the main path's
// amplitude zeroed; gains is nil when the fit fails, finds no main path or
// keeps no late path, so the channel needs no equalization.
func (d *Demodulator) echoGains(y []complex128, soft []SoftChip, start, maxEchoChips int) (wave, gains []complex128) {
	spc := d.p.SamplesPerChip()
	// Delay grid: half-chip resolution. Finer grids make the shifted
	// regressors too mutually correlated (an ill-conditioned fit injects
	// more error than the residual sub-chip mismatch it removes).
	offsets := []int{0}
	for off := spc / 2; off <= maxEchoChips*spc; off += spc / 2 {
		offsets = append(offsets, off)
	}
	wave = d.reconstruct(HardChips(soft))
	gains, err := estimatePaths(y, wave, start, offsets)
	if err != nil {
		return wave, nil // estimation failure is not fatal: keep the decisions
	}
	mainAmp := cmplx.Abs(gains[0])
	if mainAmp == 0 {
		return wave, nil
	}
	late := false
	for k := 1; k < len(gains); k++ {
		if cmplx.Abs(gains[k]) > 0.15*mainAmp {
			late = true
		} else {
			gains[k] = 0
		}
	}
	if !late {
		return wave, nil
	}
	return wave, gains
}
