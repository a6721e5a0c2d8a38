package phy

import (
	"fmt"
	"math"
	"math/cmplx"

	"vab/internal/dsp"
)

// Demodulator recovers chips from the reader's received baseband waveform:
// DC-notch self-interference suppression, noncoherent preamble acquisition
// and per-chip dual-tone energy detection on the located arrival alone.
type Demodulator struct {
	p        Params
	bank     *dsp.ToneBank
	preamble []complex128    // upper-sideband reference waveform of the preamble
	corr     *dsp.Correlator // full-rate matched filter, evaluated at single lags
	coarse   *dsp.Correlator // preamble integrated and dumped by decim
	decim    int             // coarse acquisition factor, see coarseFactor

	// Reused scratch: the demodulator runs once per round for thousands of
	// rounds, so per-call buffers (the decimated capture, the correlation
	// surface, the notch history ring, the tone-energy pair, RefineTiming's
	// probe chips) are owned by the instance instead of allocated per
	// capture. This is part of why a Demodulator is not safe for concurrent
	// use.
	coarseBuf    []complex128
	ncBuf        []float64
	suppressHist []complex128
	probeBuf     []SoftChip
	eBuf         [2]float64
}

// NewDemodulator builds a demodulator for the given numerology.
func NewDemodulator(p Params) (*Demodulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Demodulator{
		p:    p,
		bank: dsp.NewToneBank([]float64{p.F0, p.F1}, p.SampleRate, p.SamplesPerChip()),
	}
	d.preamble = d.referenceWaveform()
	d.corr = dsp.NewCorrelator(d.preamble)
	d.decim = coarseFactor(p)
	d.coarse = dsp.NewCorrelator(integrateDump(nil, d.preamble, d.decim))
	return d, nil
}

// coarseFactor picks the integrate-and-dump factor of the coarse
// acquisition stage: the largest of 8, 4 and 2 whose decimated Nyquist
// limit is not below either subcarrier, or 1 (a full-rate coarse stage)
// when none qualifies, so no tone aliases onto another frequency.
//
// The default numerology (1 kHz at 16 kHz) sits exactly at the limit at 8.
// There the 1 kHz tone and its lower-sideband mirror fold onto one coarse
// frequency: the reflection toggle is real, so every chip carries both,
// and the mirror adds to the reference tone with a phase that changes chip
// to chip. That perturbs the coarse correlation, not the fine search, and
// shows only when a late echo rivals the direct arrival: the coarse peak
// can then land on the echo (TestLocateMatchesFullSearch measures it).
func coarseFactor(p Params) int {
	f := math.Max(math.Abs(p.F0), math.Abs(p.F1))
	for d := 8; d > 1; d /= 2 {
		if f <= p.SampleRate/float64(2*d) {
			return d
		}
	}
	return 1
}

// integrateDump sums each run of n samples of x into one sample of dst
// (grown as needed) and returns dst[:len(x)/n]; a trailing partial run is
// dropped. Summing before decimating keeps the coarse correlator's
// processing gain: the subcarriers sit inside the decimated band, so each
// sum integrates the signal coherently, where keeping every nth sample
// would throw away all but 1/n of the signal energy.
func integrateDump(dst, x []complex128, n int) []complex128 {
	dst = resize(dst, len(x)/n)
	for i := range dst {
		var s complex128
		for _, v := range x[i*n : (i+1)*n] {
			s += v
		}
		dst[i] = s
	}
	return dst
}

// resize returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// referenceWaveform builds the complex upper-sideband template of the
// preamble: for each preamble chip, a complex exponential at the chip's
// subcarrier, phase-continuous across the burst. A square-wave reflection
// toggle concentrates 4/π² ≈ 40% of its modulated power in each fundamental
// sideband; correlating against the clean exponential captures it.
func (d *Demodulator) referenceWaveform() []complex128 {
	spc := d.p.SamplesPerChip()
	out := make([]complex128, len(d.p.PreambleSeq)*spc)
	phase := 0.0
	idx := 0
	for _, v := range d.p.PreambleSeq {
		chip := byte(0)
		if v > 0 {
			chip = 1
		}
		f := d.p.chipFreq(chip)
		for s := 0; s < spc; s++ {
			out[idx] = cmplx.Rect(1, phase)
			idx++
			phase += 2 * math.Pi * f / d.p.SampleRate
		}
	}
	return out
}

// Suppress removes near-carrier self-interference — and the burst's own DC
// component, which switches on abruptly when the node starts modulating —
// in place and returns its argument. It must be applied to the raw capture
// before acquisition.
//
// The notch is a comb subtractor: y[n] = x[n] − mean(x[n−L+1…n]) with L one
// chip of samples. The moving average has exact nulls at every nonzero
// multiple of the chip rate, so both subcarrier tones pass *untouched*
// (Params.Validate pins the tones to chip-rate multiples), DC is removed
// exactly, and — unlike an IIR notch, whose impulse response smeared the
// burst-onset step across hundreds of samples — its transient is bounded by
// one chip.
func (d *Demodulator) Suppress(y []complex128) []complex128 {
	l := d.p.SamplesPerChip()
	var sum complex128
	d.suppressHist = resize(d.suppressHist, l)
	hist := d.suppressHist
	clear(hist)
	for i, v := range y {
		sum += v
		idx := i % l
		sum -= hist[idx]
		hist[idx] = v
		y[i] = v - divReal(sum, float64(min(i+1, l)))
	}
	return y
}

// divReal returns z/complex(f, 0) for finite z and f > 0, bit for bit: it
// is what the runtime's complex division computes for a real divisor
// (ratio 0, denominator f), written out so the call and its branches go.
func divReal(z complex128, f float64) complex128 {
	re, im := real(z), imag(z)
	return complex((re+im*0)/f, (im-re*0)/f)
}

// Acquisition reports where a burst was found.
type Acquisition struct {
	Start  int     // sample index of the first preamble sample
	Metric float64 // normalized correlation peak in [0, 1]
}

// Detect reports whether the located peak clears minMetric (0…1, typical
// 0.25), the threshold that rejects noise-only captures.
func (a Acquisition) Detect(minMetric float64) error {
	if a.Metric < minMetric {
		return fmt.Errorf("phy: no preamble found (peak %.3f < %.3f)", a.Metric, minMetric)
	}
	return nil
}

// Acquire locates the preamble in y and accepts it only if its metric
// clears minMetric: Locate followed by Detect.
func (d *Demodulator) Acquire(y []complex128, minMetric float64) (Acquisition, error) {
	acq, err := d.Locate(y)
	if err == nil {
		err = acq.Detect(minMetric)
	}
	if err != nil {
		return Acquisition{}, err
	}
	return acq, nil
}

// Locate finds the preamble in y by normalized noncoherent correlation,
// with no detection threshold: the best alignment and its metric. A
// caller that tries several thresholds locates once and calls Detect per
// threshold. Steady state allocates nothing.
//
// The search is coarse to fine. The capture is integrated and dumped by
// the coarse factor and correlated against the preamble treated the same
// way, over transforms that factor shorter than a full-rate correlation
// needs. The full-rate normalized correlation is then evaluated directly
// at the starts within one decimation step of the coarse peak, and the
// first maximum among them is the acquisition. Later arrivals are not
// reported: the chip detector reads the located arrival alone.
func (d *Demodulator) Locate(y []complex128) (Acquisition, error) {
	m := len(d.preamble)
	if len(y) < m {
		return Acquisition{}, fmt.Errorf("phy: capture of %d samples shorter than preamble %d", len(y), m)
	}
	nOut := len(y) - m + 1
	d.coarseBuf = integrateDump(d.coarseBuf, y, d.decim)
	nCoarse := len(d.coarseBuf) - m/d.decim + 1
	d.ncBuf = resize(d.ncBuf, nCoarse)
	nc := d.ncBuf
	d.coarse.NormXCorrInto(nc, d.coarseBuf)
	k := dsp.ArgMax(nc)
	acq := Acquisition{Start: -1}
	for s := max(0, d.decim*(k-1)); s <= min(nOut-1, d.decim*(k+1)); s++ {
		if v := d.corr.NormXCorrAt(y, s); acq.Start < 0 || v > acq.Metric {
			acq.Start, acq.Metric = s, v
		}
	}
	return acq, nil
}

// RefineTiming sweeps sub-chip offsets around an acquisition and returns
// the acquisition shifted to the offset that maximizes the mean soft margin
// over the first probe chips of the payload. Correlation peaks can land
// between two comparable multipath arrivals (the normalized correlator sees
// their envelope sum); chip windows straddling a boundary then split energy
// across both tones. This classic decision-directed timing step recovers
// the alignment.
func (d *Demodulator) RefineTiming(y []complex128, acq Acquisition, probeChips int) Acquisition {
	spc := d.p.SamplesPerChip()
	best := acq
	bestMetric := -1.0
	step := spc / 8
	if step < 1 {
		step = 1
	}
	for off := -spc / 2; off <= spc/2; off += step {
		cand := acq
		cand.Start += off
		if cand.Start < 0 {
			continue
		}
		soft, err := d.DemodChipsInto(d.probeBuf, y, cand, probeChips)
		if err != nil {
			continue
		}
		d.probeBuf = soft
		if m := MeanMargin(soft); m > bestMetric {
			bestMetric = m
			best = cand
		}
	}
	return best
}

// SoftChip is one chip decision with its evidence.
type SoftChip struct {
	Value byte
	E0    float64 // tone-0 energy
	E1    float64 // tone-1 energy
}

// Margin returns a soft reliability metric in [0, 1): the normalized energy
// difference between the winning and losing tones.
func (s SoftChip) Margin() float64 {
	t := s.E0 + s.E1
	if t <= 0 {
		return 0
	}
	return math.Abs(s.E1-s.E0) / t
}

// DemodChipsInto detects n payload chips from y, where acq locates the
// preamble; the payload starts one preamble length after acq.Start. Each
// chip is decided by comparing the two tone energies in its window on the
// located arrival. The soft chips go into dst, which it grows as needed
// and returns resliced to n.
func (d *Demodulator) DemodChipsInto(dst []SoftChip, y []complex128, acq Acquisition, n int) ([]SoftChip, error) {
	spc := d.p.SamplesPerChip()
	start := acq.Start + len(d.preamble)
	need := start + n*spc
	if need > len(y) {
		return nil, fmt.Errorf("phy: capture too short: need %d samples, have %d", need, len(y))
	}
	out := resize(dst, n)
	e := d.eBuf[:]
	for i := range out {
		lo := start + i*spc
		d.bank.Energies(e, y[lo:lo+spc])
		sc := SoftChip{E0: e[0], E1: e[1]}
		if e[1] > e[0] {
			sc.Value = 1
		}
		out[i] = sc
	}
	return out, nil
}

// HardChips extracts the chip values from soft decisions.
func HardChips(soft []SoftChip) []byte {
	out := make([]byte, len(soft))
	for i, s := range soft {
		out[i] = s.Value
	}
	return out
}

// MeanMargin returns the average soft margin across a burst, a cheap SNR
// proxy used by rate adaptation and link diagnostics.
func MeanMargin(soft []SoftChip) float64 {
	if len(soft) == 0 {
		return 0
	}
	var s float64
	for _, c := range soft {
		s += c.Margin()
	}
	return s / float64(len(soft))
}

// EstimateSNR estimates the per-chip tone SNR (linear) from soft decisions:
// winning-tone energy over losing-tone energy, averaged. The losing tone of
// an orthogonal pair holds only noise, so the ratio estimates
// (signal+noise)/noise; subtracting 1 yields SNR.
func EstimateSNR(soft []SoftChip) float64 {
	if len(soft) == 0 {
		return 0
	}
	var win, lose float64
	for _, c := range soft {
		w, l := c.E0, c.E1
		if c.Value == 1 {
			w, l = c.E1, c.E0
		}
		win += w
		lose += l
	}
	if lose <= 0 {
		return math.Inf(1)
	}
	r := win/lose - 1
	if r < 0 {
		return 0
	}
	return r
}
