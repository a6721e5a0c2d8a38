// Package phy implements VAB's physical layer on both sides of the link.
//
// Uplink (node → reader): the node cannot generate a carrier — it modulates
// its reflection coefficient. Chips are encoded as subcarrier frequencies
// (backscatter FSK): during each chip interval the node toggles its
// reflection between two states at rate f0 (chip 0) or f1 (chip 1), which
// moves the backscattered energy to sidebands at ±f0/±f1 around the
// carrier, away from the reader's own self-interference. The reader removes
// the near-carrier leakage, acquires the preamble by noncoherent
// correlation, and detects chips with per-tone Goertzel energy, optionally
// combining energy across resolvable multipath offsets.
//
// Downlink (reader → node): the reader on-off-keys its carrier; the node's
// receiver is a passive envelope detector and comparator, matching the
// microwatt power budget of a battery-free device.
package phy

import (
	"fmt"
	"math"

	"vab/internal/dsp"
)

// Params fixes the air interface numerology shared by modulator and
// demodulator.
type Params struct {
	SampleRate float64 // baseband sample rate, Hz
	ChipRate   float64 // chips per second; SampleRate/ChipRate must be integral
	F0, F1     float64 // subcarrier frequencies for chip 0 / chip 1, Hz

	// PreambleSeq is the ±1 synchronization sequence prepended to every
	// uplink burst (one chip per element).
	PreambleSeq []float64

	// ClockPPM models the node oscillator's frequency error in parts per
	// million. A battery-free node runs from a micro-power RC or crystal
	// oscillator whose tolerance the receiver must absorb: the node's chip
	// clock and subcarrier frequencies both scale by (1 + ppm·1e-6),
	// stretching the burst and detuning the tones. Zero is a perfect
	// clock; the receiver-tolerance test characterizes the usable budget.
	ClockPPM float64
}

// DefaultParams returns the system numerology used throughout the
// reproduction: 16 kHz complex baseband, 500 chips/s, subcarriers at 500 and
// 1000 Hz (orthogonal over a chip), and a 31-chip m-sequence preamble.
func DefaultParams() Params {
	pre, err := dsp.MSequence(5)
	if err != nil {
		panic(err) // degree 5 is always supported
	}
	return Params{
		SampleRate:  16e3,
		ChipRate:    500,
		F0:          500,
		F1:          1000,
		PreambleSeq: pre,
	}
}

// Validate checks internal consistency of the numerology.
func (p *Params) Validate() error {
	if p.SampleRate <= 0 || p.ChipRate <= 0 {
		return fmt.Errorf("phy: sample rate %.3g and chip rate %.3g must be positive", p.SampleRate, p.ChipRate)
	}
	spc := p.SampleRate / p.ChipRate
	if spc != math.Trunc(spc) || spc < 4 {
		return fmt.Errorf("phy: samples per chip %.3f must be an integer >= 4", spc)
	}
	if p.F0 == p.F1 {
		return fmt.Errorf("phy: subcarriers must differ")
	}
	ny := p.SampleRate / 2
	if math.Abs(p.F0) >= ny || math.Abs(p.F1) >= ny || p.F0 == 0 || p.F1 == 0 {
		return fmt.Errorf("phy: subcarriers (%.3g, %.3g) must be nonzero and below Nyquist %.3g", p.F0, p.F1, ny)
	}
	// Each tone must sit at a nonzero integer multiple of the chip rate:
	// this makes the tones orthogonal over a chip (zero inter-tone
	// leakage) and places them exactly on the nulls-complement of the
	// receiver's comb notch, so self-interference suppression costs no
	// signal energy.
	for _, f := range []float64{p.F0, p.F1} {
		k := f / p.ChipRate
		if math.Abs(k-math.Round(k)) > 1e-9 || math.Round(k) == 0 {
			return fmt.Errorf("phy: tone %.3g Hz not a nonzero multiple of chip rate %.3g", f, p.ChipRate)
		}
	}
	if len(p.PreambleSeq) < 7 {
		return fmt.Errorf("phy: preamble of %d chips too short to acquire", len(p.PreambleSeq))
	}
	return nil
}

// SamplesPerChip returns the integer oversampling factor.
func (p *Params) SamplesPerChip() int { return int(p.SampleRate / p.ChipRate) }

// chipFreq maps a chip value to its subcarrier.
func (p *Params) chipFreq(chip byte) float64 {
	if chip == 0 {
		return p.F0
	}
	return p.F1
}
