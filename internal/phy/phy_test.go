package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vab/internal/dsp"
)

func TestDefaultParamsValid(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.SamplesPerChip() != 32 {
		t.Errorf("samples per chip = %d, want 32", p.SamplesPerChip())
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.SampleRate = 0 },
		func(p *Params) { p.ChipRate = -1 },
		func(p *Params) { p.ChipRate = 499 },                  // non-integer spc
		func(p *Params) { p.F1 = p.F0 },                       // equal tones
		func(p *Params) { p.F0 = 0 },                          // zero tone
		func(p *Params) { p.F1 = 9e3 },                        // above Nyquist (16k/2=8k)
		func(p *Params) { p.F1 = p.F0 + 750 },                 // non-orthogonal spacing
		func(p *Params) { p.PreambleSeq = p.PreambleSeq[:3] }, // too short
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestGammaWaveformStructure(t *testing.T) {
	m, err := NewModulator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	chips := []byte{0, 1, 1, 0}
	g, err := m.GammaWaveform(chips)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != m.BurstSamples(len(chips)) {
		t.Fatalf("waveform length %d, want %d", len(g), m.BurstSamples(len(chips)))
	}
	// Binary values only.
	for i, v := range g {
		if v != 0 && v != 1 {
			t.Fatalf("sample %d = %v, want 0/1", i, v)
		}
	}
	// Duty cycle near 50%: the switch spends half its time reflecting.
	var on float64
	for _, v := range g {
		on += v
	}
	duty := on / float64(len(g))
	if math.Abs(duty-0.5) > 0.05 {
		t.Errorf("duty cycle %v, want ~0.5", duty)
	}
	if _, err := m.GammaWaveform([]byte{2}); err == nil {
		t.Error("non-binary chip accepted")
	}
}

func TestGammaWaveformSubcarrierFrequencies(t *testing.T) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	// 64 chips of value 0: energy should sit at F0, not F1.
	chips := make([]byte, 64)
	g, _ := m.GammaWaveform(chips)
	// Skip the preamble, remove DC, convert to complex.
	payload := g[len(p.PreambleSeq)*p.SamplesPerChip():]
	x := make([]complex128, len(payload))
	for i, v := range payload {
		x[i] = complex(v-0.5, 0)
	}
	g0 := dsp.NewGoertzel(p.F0, p.SampleRate)
	g1 := dsp.NewGoertzel(p.F1, p.SampleRate)
	e0, e1 := g0.Energy(x), g1.Energy(x)
	if e0 < 50*e1 {
		t.Errorf("chip-0 energy at F0 %v should dominate F1 %v", e0, e1)
	}
}

func TestModulatorRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.ChipRate = 0
	if _, err := NewModulator(p); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := NewDemodulator(p); err == nil {
		t.Error("bad params accepted by demod")
	}
	if _, err := NewOOKDemodulator(p); err == nil {
		t.Error("bad params accepted by OOK demod")
	}
}

// DemodChips is DemodChipsInto into a fresh slice: the tests' shorthand.
func (d *Demodulator) DemodChips(y []complex128, acq Acquisition, n int) ([]SoftChip, error) {
	return d.DemodChipsInto(nil, y, acq, n)
}

// loopback modulates chips, scales, rotates and delays the waveform, adds
// noise, and returns the capture a reader would see (no channel model).
func loopback(t *testing.T, m *Modulator, chips []byte, delay int, gain complex128, noisePower float64, seed int64) []complex128 {
	t.Helper()
	g, err := m.GammaWaveform(chips)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	n := delay + len(g) + 256
	y := make([]complex128, n)
	if noisePower > 0 {
		dsp.GaussianNoise(y, noisePower, rng)
	}
	for i, v := range g {
		// The modulated reflection rides on a unit carrier: at baseband the
		// received contribution is gain·γ(t).
		y[delay+i] += gain * complex(v, 0)
	}
	return y
}

func TestAcquireFindsPreamble(t *testing.T) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	d, _ := NewDemodulator(p)
	chips := []byte{1, 0, 1, 1, 0, 0, 1, 0}
	delay := 777
	y := loopback(t, m, chips, delay, complex(0.3, 0.4), 0.001, 7)
	d.Suppress(y)
	acq, err := d.Acquire(y, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if acq.Start < delay-2 || acq.Start > delay+2 {
		t.Errorf("acquired at %d, want ~%d", acq.Start, delay)
	}
	if acq.Metric < 0.4 {
		t.Errorf("weak metric %v", acq.Metric)
	}
}

func TestAcquireRejectsNoise(t *testing.T) {
	p := DefaultParams()
	d, _ := NewDemodulator(p)
	rng := rand.New(rand.NewSource(3))
	y := dsp.GaussianNoise(make([]complex128, 4096), 1, rng)
	if _, err := d.Acquire(y, 0.4); err == nil {
		t.Error("noise-only capture acquired")
	}
	if _, err := d.Acquire(make([]complex128, 10), 0.2); err == nil {
		t.Error("too-short capture accepted")
	}
}

func TestDemodChipsCleanChannel(t *testing.T) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	d, _ := NewDemodulator(p)
	rng := rand.New(rand.NewSource(5))
	chips := make([]byte, 64)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	y := loopback(t, m, chips, 300, complex(0.2, -0.1), 1e-6, 11)
	d.Suppress(y)
	acq, err := d.Acquire(y, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := d.DemodChips(y, acq, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountChipErrors(HardChips(soft), chips); n != 0 {
		t.Errorf("%d chip errors on a clean channel", n)
	}
	if mm := MeanMargin(soft); mm < 0.5 {
		t.Errorf("mean margin %v too low for clean channel", mm)
	}
	if snr := EstimateSNR(soft); snr < 100 {
		t.Errorf("estimated SNR %v too low for clean channel", snr)
	}
}

func TestDemodChipsErrorsAtLowSNR(t *testing.T) {
	// At very low SNR the detector must degrade toward coin-flipping, not
	// crash or bias.
	p := DefaultParams()
	m, _ := NewModulator(p)
	d, _ := NewDemodulator(p)
	rng := rand.New(rand.NewSource(9))
	chips := make([]byte, 256)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	g, _ := m.GammaWaveform(chips)
	y := dsp.GaussianNoise(make([]complex128, len(g)), 1.0, rng)
	for i, v := range g {
		y[i] += complex(0.005*v, 0) // buried far below the noise
	}
	acq := Acquisition{Start: 0, Metric: 1} // force alignment
	soft, err := d.DemodChips(y, acq, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	errs := CountChipErrors(HardChips(soft), chips)
	if errs < 64 || errs > 192 {
		t.Errorf("error count %d should approach half of %d", errs, len(chips))
	}
}

func TestDemodChipsTooShortCapture(t *testing.T) {
	p := DefaultParams()
	d, _ := NewDemodulator(p)
	y := make([]complex128, 100)
	if _, err := d.DemodChips(y, Acquisition{Start: 0}, 64); err == nil {
		t.Error("short capture accepted")
	}
}

func TestSuppressRemovesStrongDC(t *testing.T) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	d, _ := NewDemodulator(p)
	chips := []byte{1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1}
	y := loopback(t, m, chips, 500, complex(0.1, 0), 1e-4, 2)
	// Add overwhelming carrier leakage (60 dB above the signal).
	for i := range y {
		y[i] += complex(100, 30)
	}
	d.Suppress(y)
	acq, err := d.Acquire(y, 0.2)
	if err != nil {
		t.Fatalf("acquisition failed under leakage: %v", err)
	}
	soft, err := d.DemodChips(y, acq, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountChipErrors(HardChips(soft), chips); n != 0 {
		t.Errorf("%d chip errors with SI suppression", n)
	}
}

func TestAdaptiveCancellerConverges(t *testing.T) {
	c := NewAdaptiveCanceller(0.1)
	rng := rand.New(rand.NewSource(13))
	n := 4000
	leak := complex(3, -4)
	x := make([]complex128, n)
	y := make([]complex128, n)
	for i := range x {
		x[i] = complex(1+0.1*rng.NormFloat64(), 0)
		y[i] = leak * x[i]
	}
	c.Process(y, x)
	// Residual power in the tail should be crushed.
	tail := dsp.Energy(y[n/2:]) / float64(n-n/2)
	if tail > 1e-6 {
		t.Errorf("residual power %v after convergence", tail)
	}
	if w := c.w; math.Abs(real(w)-3) > 0.01 || math.Abs(imag(w)+4) > 0.01 {
		t.Errorf("weight %v, want (3,-4)", w)
	}
	c.Reset()
	if c.w != 0 {
		t.Error("reset failed")
	}
}

func TestAdaptiveCancellerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad mu should panic")
		}
	}()
	NewAdaptiveCanceller(0)
}

func TestAdaptiveCancellerLengthMismatch(t *testing.T) {
	c := NewAdaptiveCanceller(0.1)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	c.Process(make([]complex128, 3), make([]complex128, 4))
}

func TestBERModels(t *testing.T) {
	// AWGN NCFSK at 10 dB: ½·exp(−5) ≈ 3.37e-3.
	got := BERNoncoherentFSK(10)
	if math.Abs(got-0.5*math.Exp(-5)) > 1e-12 {
		t.Errorf("NCFSK(10) = %v", got)
	}
	if BERNoncoherentFSK(-1) != 0.5 {
		t.Error("negative Eb/N0 should return 0.5")
	}
	// Rician limits.
	if math.Abs(BERNoncoherentFSKRician(10, 0)-1.0/12.0) > 1e-12 {
		t.Errorf("Rayleigh limit wrong: %v", BERNoncoherentFSKRician(10, 0))
	}
	if math.Abs(BERNoncoherentFSKRician(10, math.Inf(1))-BERNoncoherentFSK(10)) > 1e-15 {
		t.Error("K→∞ should recover AWGN")
	}
	// Large K approaches AWGN.
	if math.Abs(BERNoncoherentFSKRician(10, 1e6)-BERNoncoherentFSK(10)) > 1e-6 {
		t.Error("large K should approach AWGN")
	}
}

func TestBERNoncoherentMFSKLimits(t *testing.T) {
	// M=2 must reduce to the binary formula.
	for _, snr := range []float64{1, 5, 20} {
		want := BERNoncoherentFSK(snr)
		if got := BERNoncoherentMFSK(snr, 2); math.Abs(got-want) > 1e-12 {
			t.Errorf("M=2 at %v: %v vs %v", snr, got, want)
		}
	}
	// At zero SNR, Pb = M/(2(M-1))·Ps with Ps = (M-1)/M → Pb = 1/2.
	if got := BERNoncoherentMFSK(0, 4); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Pb(0 SNR, M=4) = %v, want 0.5", got)
	}
	// Monotone decreasing in SNR.
	prev := 1.0
	for snr := 0.5; snr < 60; snr *= 1.5 {
		v := BERNoncoherentMFSK(snr, 4)
		if v > prev+1e-12 {
			t.Fatalf("not monotone at %v", snr)
		}
		prev = v
	}
	// At equal Es/N0, larger M has higher symbol error, but per-bit (same
	// Eb/N0 = Es/(N0·k)) 4-FSK beats 2-FSK — the classic orthogonal-FSK
	// power-efficiency gain.
	eb := 12.0
	b2 := BERNoncoherentFSK(eb)
	b4 := BERNoncoherentMFSK(2*eb, 4) // Es = 2·Eb for k=2
	if b4 >= b2 {
		t.Errorf("4-FSK at equal Eb/N0 should beat 2-FSK: %v vs %v", b4, b2)
	}
}

func TestBERMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		x := math.Mod(math.Abs(a), 100)
		y := math.Mod(math.Abs(b), 100)
		if x > y {
			x, y = y, x
		}
		return BERNoncoherentFSK(y) <= BERNoncoherentFSK(x)+1e-15 &&
			BERNoncoherentFSKRician(y, 10) <= BERNoncoherentFSKRician(x, 10)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOOKRoundTrip(t *testing.T) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	d, _ := NewOOKDemodulator(p)
	chips := []byte{1, 0, 1, 1, 0, 1, 0, 0, 1, 1}
	tx, err := m.OOKModulate(chips, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Attenuate, rotate, add mild noise.
	rng := rand.New(rand.NewSource(31))
	y := make([]complex128, len(tx))
	for i, v := range tx {
		y[i] = complex(0, 0.2)*v + complex(rng.NormFloat64()*0.005, rng.NormFloat64()*0.005)
	}
	got, err := d.DemodChips(y, 0, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	if n := CountChipErrors(got, chips); n != 0 {
		t.Errorf("%d OOK chip errors", n)
	}
}

func TestOOKPartialDepth(t *testing.T) {
	p := DefaultParams()
	m, _ := NewModulator(p)
	tx, err := m.OOKModulate([]byte{0, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if real(tx[0]) != 0.5 || real(tx[len(tx)-1]) != 1 {
		t.Errorf("depth 0.5 levels: %v / %v", tx[0], tx[len(tx)-1])
	}
	if _, err := m.OOKModulate([]byte{1}, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := m.OOKModulate([]byte{3}, 1); err == nil {
		t.Error("non-binary chip accepted")
	}
}

func TestOOKDemodBounds(t *testing.T) {
	p := DefaultParams()
	d, _ := NewOOKDemodulator(p)
	if _, err := d.DemodChips(make([]complex128, 10), 0, 5); err == nil {
		t.Error("short capture accepted")
	}
	if _, err := d.DemodChips(make([]complex128, 100), -1, 1); err == nil {
		t.Error("negative start accepted")
	}
}

func TestCountChipErrorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	CountChipErrors([]byte{1}, []byte{1, 0})
}

// CountChipErrors compares detected chips against the transmitted reference
// and returns the number of mismatches. Slices must have equal length.
func CountChipErrors(got, want []byte) int {
	if len(got) != len(want) {
		panic("phy: chip slice length mismatch")
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
