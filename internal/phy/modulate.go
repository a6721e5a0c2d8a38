package phy

import (
	"fmt"
	"math"
)

// Modulator produces the node-side reflection waveform γ(t) and the
// reader-side transmit envelopes.
type Modulator struct {
	p Params
}

// NewModulator validates the numerology and returns a modulator.
func NewModulator(p Params) (*Modulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Modulator{p: p}, nil
}

// GammaWaveform renders preamble + chips into the node's reflection toggle
// waveform: values 0 and 1 (the two switch states), one sample per baseband
// sample. During a chip of value b, the switch toggles as a square wave at
// subcarrier frequency f_b. Phase is continuous across chips so the
// mechanical switch never sees a fractional cycle discontinuity.
func (m *Modulator) GammaWaveform(chips []byte) ([]float64, error) {
	return m.GammaWaveformInto(nil, chips)
}

// GammaWaveformInto is GammaWaveform writing into dst, which it grows as
// needed and returns resliced to the burst length. A caller that keeps
// the returned buffer for its next burst of the same length allocates
// nothing.
func (m *Modulator) GammaWaveformInto(dst []float64, chips []byte) ([]float64, error) {
	for i, c := range chips {
		if c > 1 {
			return nil, fmt.Errorf("phy: chip %d has non-binary value %d", i, c)
		}
	}
	if m.p.ClockPPM != 0 {
		return m.skewedGamma(dst, chips), nil
	}
	spc := m.p.SamplesPerChip()
	nChips := len(m.p.PreambleSeq) + len(chips)
	out := resize(dst, nChips*spc)
	fs := m.p.SampleRate
	phase := 0.0
	idx := 0
	for j := 0; j < nChips; j++ {
		f := m.p.chipFreq(m.burstChip(chips, j))
		for s := 0; s < spc; s++ {
			out[idx] = 0
			if sinNonNeg(phase) {
				out[idx] = 1
			}
			idx++
			phase += 2 * math.Pi * f / fs
		}
	}
	return out, nil
}

// skewedGamma renders the burst into dst (grown as needed) as produced by
// a node whose oscillator runs fast or slow by ClockPPM: node time advances
// (1+δ) per receiver sample, so chip boundaries drift and the subcarrier
// tones shift by the same relative amount. The output length shrinks (fast
// clock) or grows (slow).
func (m *Modulator) skewedGamma(dst []float64, chips []byte) []float64 {
	delta := 1 + m.p.ClockPPM*1e-6
	fs := m.p.SampleRate
	chipDur := 1 / m.p.ChipRate // in node time
	nChips := len(m.p.PreambleSeq) + len(chips)
	totalNode := float64(nChips) * chipDur
	n := int(math.Ceil(totalNode / delta * fs))
	out := resize(dst, n)
	clear(out)
	phase := 0.0
	for i := 0; i < n; i++ {
		tau := float64(i) / fs * delta // node time
		chip := int(tau / chipDur)
		if chip >= nChips {
			break
		}
		f := m.p.chipFreq(m.burstChip(chips, chip))
		if sinNonNeg(phase) {
			out[i] = 1
		}
		phase += 2 * math.Pi * f * delta / fs
	}
	return out
}

// sinNonNeg reports math.Sin(phase) >= 0, evaluating the sine only near
// its zeros. With phase = kπ + r and k = round(phase/π), sin(phase) has the
// sign of (−1)^k·r. The reduction's rounding error (about 1e-12 at the
// phases a burst reaches) is far inside the 1e-6 band where math.Sin still
// decides, so the answer is the same bit for bit.
func sinNonNeg(phase float64) bool {
	k := math.Round(phase / math.Pi)
	r := phase - k*math.Pi
	if math.Abs(r) <= 1e-6 {
		return math.Sin(phase) >= 0
	}
	return (r > 0) == (int64(k)&1 == 0)
}

// burstChip returns chip j of the burst: the ±1 preamble sequence mapped
// to chips, then the payload chips.
func (m *Modulator) burstChip(chips []byte, j int) byte {
	if p := len(m.p.PreambleSeq); j >= p {
		return chips[j-p]
	}
	if m.p.PreambleSeq[j] > 0 {
		return 1
	}
	return 0
}

// BurstSamples returns the waveform length in samples of a burst carrying n
// payload chips (preamble included).
func (m *Modulator) BurstSamples(n int) int {
	return (len(m.p.PreambleSeq) + n) * m.p.SamplesPerChip()
}

// CarrierEnvelope returns a constant unit envelope of n samples: the
// reader's continuous-wave interrogation signal at complex baseband.
func CarrierEnvelope(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// OOKModulate on-off-keys a unit carrier envelope with downlink chips at
// the modulator's chip rate. depth in (0, 1] sets the modulation depth
// (1 = full on/off); partial depth lets the node keep harvesting energy
// during "off" chips.
func (m *Modulator) OOKModulate(chips []byte, depth float64) ([]complex128, error) {
	return m.OOKModulateInto(nil, chips, depth)
}

// OOKModulateInto is OOKModulate writing into dst, which it grows as
// needed and returns resliced to the envelope length.
func (m *Modulator) OOKModulateInto(dst []complex128, chips []byte, depth float64) ([]complex128, error) {
	if depth <= 0 || depth > 1 {
		return nil, fmt.Errorf("phy: OOK depth %.3g outside (0, 1]", depth)
	}
	for i, c := range chips {
		if c > 1 {
			return nil, fmt.Errorf("phy: chip %d has non-binary value %d", i, c)
		}
	}
	spc := m.p.SamplesPerChip()
	out := resize(dst, len(chips)*spc)
	lo := complex(1-depth, 0)
	for i, c := range chips {
		v := lo
		if c == 1 {
			v = 1
		}
		for s := 0; s < spc; s++ {
			out[i*spc+s] = v
		}
	}
	return out, nil
}
