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
	for i, c := range chips {
		if c > 1 {
			return nil, fmt.Errorf("phy: chip %d has non-binary value %d", i, c)
		}
	}
	all := m.withPreamble(chips)
	if m.p.ClockPPM != 0 {
		return m.skewedGamma(all), nil
	}
	spc := m.p.SamplesPerChip()
	out := make([]float64, len(all)*spc)
	fs := m.p.SampleRate
	phase := 0.0
	idx := 0
	for _, c := range all {
		f := m.p.chipFreq(c)
		for s := 0; s < spc; s++ {
			if sinNonNeg(phase) {
				out[idx] = 1
			}
			idx++
			phase += 2 * math.Pi * f / fs
		}
	}
	return out, nil
}

// skewedGamma renders the burst as produced by a node whose oscillator runs
// fast or slow by ClockPPM: node time advances (1+δ) per receiver sample,
// so chip boundaries drift and the subcarrier tones shift by the same
// relative amount. The output length shrinks (fast clock) or grows (slow).
func (m *Modulator) skewedGamma(all []byte) []float64 {
	delta := 1 + m.p.ClockPPM*1e-6
	fs := m.p.SampleRate
	chipDur := 1 / m.p.ChipRate // in node time
	totalNode := float64(len(all)) * chipDur
	n := int(math.Ceil(totalNode / delta * fs))
	out := make([]float64, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		tau := float64(i) / fs * delta // node time
		chip := int(tau / chipDur)
		if chip >= len(all) {
			break
		}
		f := m.p.chipFreq(all[chip])
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

// withPreamble maps the ±1 preamble sequence to chips and prepends it.
func (m *Modulator) withPreamble(chips []byte) []byte {
	all := make([]byte, 0, len(m.p.PreambleSeq)+len(chips))
	for _, v := range m.p.PreambleSeq {
		if v > 0 {
			all = append(all, 1)
		} else {
			all = append(all, 0)
		}
	}
	return append(all, chips...)
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
	if depth <= 0 || depth > 1 {
		return nil, fmt.Errorf("phy: OOK depth %.3g outside (0, 1]", depth)
	}
	for i, c := range chips {
		if c > 1 {
			return nil, fmt.Errorf("phy: chip %d has non-binary value %d", i, c)
		}
	}
	spc := m.p.SamplesPerChip()
	out := make([]complex128, len(chips)*spc)
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
