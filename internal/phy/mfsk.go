package phy

import (
	"fmt"
	"math"

	"vab/internal/dsp"
)

// M-ary backscatter FSK: an extension beyond the paper's binary subcarrier
// signaling. The node toggles its reflection at one of M = 2^k subcarrier
// rates per chip, carrying k bits per chip at the same switching-energy
// cost — the natural throughput upgrade for a backscatter node, whose
// oscillator can synthesize several toggle rates far more cheaply than it
// could synthesize phases. The price is detection SNR (the per-tone energy
// threshold rises with M) and bandwidth (M tones must fit inside the
// transducer's resonance).

// MFSKParams fixes the M-ary numerology.
type MFSKParams struct {
	SampleRate float64
	ChipRate   float64
	// Tones are the M subcarrier frequencies (M a power of two ≥ 2), each
	// a distinct nonzero integer multiple of ChipRate.
	Tones []float64
	// PreambleSeq is the ±1 acquisition sequence, signaled on the lowest
	// (−1) and highest (+1) tones for maximum distance.
	PreambleSeq []float64
}

// DefaultMFSKParams returns a 4-FSK numerology sharing the binary system's
// sample rate and chip rate, with tones at 500/1000/1500/2000 Hz.
func DefaultMFSKParams() MFSKParams {
	pre, err := dsp.MSequence(5)
	if err != nil {
		panic(err)
	}
	return MFSKParams{
		SampleRate:  16e3,
		ChipRate:    500,
		Tones:       []float64{500, 1000, 1500, 2000},
		PreambleSeq: pre,
	}
}

// Validate checks the numerology.
func (p *MFSKParams) Validate() error {
	if p.SampleRate <= 0 || p.ChipRate <= 0 {
		return fmt.Errorf("phy: mfsk sample rate %.3g / chip rate %.3g must be positive", p.SampleRate, p.ChipRate)
	}
	spc := p.SampleRate / p.ChipRate
	if spc != math.Trunc(spc) || spc < 4 {
		return fmt.Errorf("phy: mfsk samples per chip %.3f must be an integer >= 4", spc)
	}
	m := len(p.Tones)
	if m < 2 || m&(m-1) != 0 {
		return fmt.Errorf("phy: mfsk needs a power-of-two tone count >= 2, got %d", m)
	}
	seen := map[float64]bool{}
	ny := p.SampleRate / 2
	for _, f := range p.Tones {
		k := f / p.ChipRate
		if math.Abs(k-math.Round(k)) > 1e-9 || math.Round(k) == 0 {
			return fmt.Errorf("phy: mfsk tone %.3g Hz not a nonzero multiple of chip rate %.3g", f, p.ChipRate)
		}
		if math.Abs(f) >= ny {
			return fmt.Errorf("phy: mfsk tone %.3g Hz at or above Nyquist %.3g", f, ny)
		}
		if seen[f] {
			return fmt.Errorf("phy: duplicate mfsk tone %.3g Hz", f)
		}
		seen[f] = true
	}
	if len(p.PreambleSeq) < 7 {
		return fmt.Errorf("phy: mfsk preamble of %d chips too short", len(p.PreambleSeq))
	}
	return nil
}

// SamplesPerChip returns the oversampling factor.
func (p *MFSKParams) SamplesPerChip() int { return int(p.SampleRate / p.ChipRate) }

// BitsPerSymbol returns log2(M).
func (p *MFSKParams) BitsPerSymbol() int {
	k := 0
	for m := len(p.Tones); m > 1; m >>= 1 {
		k++
	}
	return k
}

// BitRate returns the raw bit rate: ChipRate · log2(M).
func (p *MFSKParams) BitRate() float64 {
	return p.ChipRate * float64(p.BitsPerSymbol())
}

// MFSKModulator renders symbol streams into node reflection waveforms.
type MFSKModulator struct {
	p MFSKParams
}

// NewMFSKModulator validates and builds a modulator.
func NewMFSKModulator(p MFSKParams) (*MFSKModulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &MFSKModulator{p: p}, nil
}

// BurstSamples returns the waveform length for n payload symbols.
func (m *MFSKModulator) BurstSamples(n int) int {
	return (len(m.p.PreambleSeq) + n) * m.p.SamplesPerChip()
}

// GammaWaveform renders preamble + symbols as the 0/1 reflection toggle,
// phase-continuous across chips. Symbols index the tone table.
func (m *MFSKModulator) GammaWaveform(symbols []byte) ([]float64, error) {
	mTones := len(m.p.Tones)
	for i, s := range symbols {
		if int(s) >= mTones {
			return nil, fmt.Errorf("phy: symbol %d at %d exceeds M=%d", s, i, mTones)
		}
	}
	spc := m.p.SamplesPerChip()
	// Preamble on the extreme tones.
	all := make([]float64, 0, (len(m.p.PreambleSeq)+len(symbols))*spc)
	phase := 0.0
	emit := func(f float64) {
		for s := 0; s < spc; s++ {
			if math.Sin(phase) >= 0 {
				all = append(all, 1)
			} else {
				all = append(all, 0)
			}
			phase += 2 * math.Pi * f / m.p.SampleRate
		}
	}
	for _, v := range m.p.PreambleSeq {
		if v > 0 {
			emit(m.p.Tones[mTones-1])
		} else {
			emit(m.p.Tones[0])
		}
	}
	for _, s := range symbols {
		emit(m.p.Tones[s])
	}
	return all, nil
}

// MFSKDemodulator detects M-ary symbols with a Goertzel tone bank.
type MFSKDemodulator struct {
	p        MFSKParams
	bank     *dsp.ToneBank
	preamble []complex128
}

// NewMFSKDemodulator validates and builds a demodulator.
func NewMFSKDemodulator(p MFSKParams) (*MFSKDemodulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &MFSKDemodulator{p: p, bank: dsp.NewToneBank(p.Tones, p.SampleRate, p.SamplesPerChip())}
	// Reference waveform: upper-sideband exponentials of the preamble.
	spc := p.SamplesPerChip()
	ref := make([]complex128, 0, len(p.PreambleSeq)*spc)
	phase := 0.0
	for _, v := range p.PreambleSeq {
		f := p.Tones[0]
		if v > 0 {
			f = p.Tones[len(p.Tones)-1]
		}
		for s := 0; s < spc; s++ {
			ref = append(ref, complex(math.Cos(phase), math.Sin(phase)))
			phase += 2 * math.Pi * f / p.SampleRate
		}
	}
	d.preamble = ref
	return d, nil
}

// Suppress applies the comb SI notch (identical nulls as the binary
// receiver: the tones sit on chip-rate multiples by construction).
func (d *MFSKDemodulator) Suppress(y []complex128) []complex128 {
	l := d.p.SamplesPerChip()
	var sum complex128
	hist := make([]complex128, l)
	for i, v := range y {
		sum += v
		idx := i % l
		sum -= hist[idx]
		hist[idx] = v
		n := i + 1
		if n > l {
			n = l
		}
		y[i] = v - sum/complex(float64(n), 0)
	}
	return y
}

// Acquire locates the burst by normalized noncoherent correlation.
func (d *MFSKDemodulator) Acquire(y []complex128, minMetric float64) (Acquisition, error) {
	if len(y) < len(d.preamble) {
		return Acquisition{}, fmt.Errorf("phy: mfsk capture shorter than preamble")
	}
	nc := dsp.NormXCorr(y, d.preamble)
	idx, peak := dsp.ArgMax(nc)
	if peak < minMetric {
		return Acquisition{}, fmt.Errorf("phy: mfsk no preamble (peak %.3f < %.3f)", peak, minMetric)
	}
	return Acquisition{Start: idx, Metric: peak}, nil
}

// SoftSymbol is one M-ary decision with its evidence.
type SoftSymbol struct {
	Value    byte
	Energies []float64
}

// Margin returns the normalized winner-vs-runner-up energy separation.
func (s SoftSymbol) Margin() float64 {
	var best, second float64
	best = math.Inf(-1)
	second = math.Inf(-1)
	var total float64
	for _, e := range s.Energies {
		total += e
		if e > best {
			second = best
			best = e
		} else if e > second {
			second = e
		}
	}
	if total <= 0 {
		return 0
	}
	return (best - second) / total
}

// DemodSymbols detects n payload symbols following the acquired preamble.
func (d *MFSKDemodulator) DemodSymbols(y []complex128, acq Acquisition, n int) ([]SoftSymbol, error) {
	spc := d.p.SamplesPerChip()
	start := acq.Start + len(d.preamble)
	if start+n*spc > len(y) {
		return nil, fmt.Errorf("phy: mfsk capture too short: need %d, have %d", start+n*spc, len(y))
	}
	out := make([]SoftSymbol, n)
	for i := 0; i < n; i++ {
		win := y[start+i*spc : start+(i+1)*spc]
		e := d.bank.Energies(make([]float64, len(d.p.Tones)), win)
		best, _ := dsp.ArgMax(e)
		out[i] = SoftSymbol{Value: byte(best), Energies: e}
	}
	return out, nil
}

// HardSymbols extracts symbol values.
func HardSymbols(soft []SoftSymbol) []byte {
	out := make([]byte, len(soft))
	for i, s := range soft {
		out[i] = s.Value
	}
	return out
}

// SymbolsFromBits packs bits (MSB first per symbol) into M-ary symbols of
// k bits each; the bit count must be a multiple of k.
func SymbolsFromBits(bits []byte, k int) ([]byte, error) {
	if k < 1 || k > 7 {
		return nil, fmt.Errorf("phy: bits per symbol %d out of range", k)
	}
	if len(bits)%k != 0 {
		return nil, fmt.Errorf("phy: %d bits not divisible by %d", len(bits), k)
	}
	out := make([]byte, 0, len(bits)/k)
	for i := 0; i < len(bits); i += k {
		var s byte
		for j := 0; j < k; j++ {
			if bits[i+j] > 1 {
				return nil, fmt.Errorf("phy: non-binary bit %d", bits[i+j])
			}
			s = s<<1 | bits[i+j]
		}
		out = append(out, s)
	}
	return out, nil
}

// BitsFromSymbols unpacks M-ary symbols into bits (MSB first).
func BitsFromSymbols(symbols []byte, k int) ([]byte, error) {
	if k < 1 || k > 7 {
		return nil, fmt.Errorf("phy: bits per symbol %d out of range", k)
	}
	out := make([]byte, 0, len(symbols)*k)
	for _, s := range symbols {
		if int(s) >= 1<<k {
			return nil, fmt.Errorf("phy: symbol %d exceeds %d bits", s, k)
		}
		for j := k - 1; j >= 0; j-- {
			out = append(out, (s>>j)&1)
		}
	}
	return out, nil
}

// BERNoncoherentMFSK returns the symbol-error-derived bit error probability
// of noncoherent M-ary orthogonal FSK on AWGN at Es/N0 (linear), using the
// union-bound-exact sum
//
//	Ps = Σ_{i=1..M−1} (−1)^{i+1} C(M−1,i)/(i+1) · exp(−i·Es/((i+1)N0))
//
// and the orthogonal-signaling bit-error relation Pb = Ps·M/(2(M−1)).
func BERNoncoherentMFSK(esn0 float64, m int) float64 {
	if m < 2 {
		return 0
	}
	if esn0 < 0 {
		esn0 = 0
	}
	var ps float64
	sign := 1.0
	c := float64(m - 1) // running binomial C(M-1, i)
	for i := 1; i <= m-1; i++ {
		ps += sign * c / float64(i+1) * math.Exp(-float64(i)*esn0/float64(i+1))
		sign = -sign
		c = c * float64(m-1-i) / float64(i+1)
	}
	if ps < 0 {
		ps = 0
	}
	if ps > 1 {
		ps = 1
	}
	return ps * float64(m) / (2 * float64(m-1))
}
