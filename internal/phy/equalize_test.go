package phy

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"vab/internal/dsp"
)

// twoPathCapture builds a capture with a main arrival and one strong late
// echo (the SIR-limited regime the equalizer targets).
func twoPathCapture(t *testing.T, chips []byte, echoChips float64, echoGain complex128, noise float64, seed int64) []complex128 {
	t.Helper()
	p := DefaultParams()
	m, err := NewModulator(p)
	if err != nil {
		t.Fatal(err)
	}
	g, err := m.GammaWaveform(chips)
	if err != nil {
		t.Fatal(err)
	}
	spc := p.SamplesPerChip()
	off := int(echoChips * float64(spc))
	rng := rand.New(rand.NewSource(seed))
	y := dsp.GaussianNoise(make([]complex128, 200+len(g)+off+256), noise, rng)
	for i, v := range g {
		y[200+i] += complex(0.1*v, 0)
		y[200+off+i] += echoGain * complex(0.1*v, 0)
	}
	return y
}

func TestEqualizerCancelsStrongLateEcho(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	chips := make([]byte, 160)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	// Echo 1.5 chips late at 85% amplitude: SIR ≈ 1.4 dB, the regime where
	// plain detection makes steady errors.
	y := twoPathCapture(t, chips, 1.5, complex(0.6, 0.6), 1e-5, 9)
	d, err := NewDemodulator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	d.Suppress(y)
	acq, err := d.Acquire(y, 0.2)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := d.DemodChips(y, acq, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	errPlain := CountChipErrors(HardChips(plain), chips)

	if _, gains := d.echoGains(y, plain, acq.Start, 6); gains == nil {
		t.Fatal("equalizer found no echo to cancel")
	}
	eq, err := d.EqualizeAndDemod(y, acq, len(chips), 6)
	if err != nil {
		t.Fatal(err)
	}
	errEq := CountChipErrors(HardChips(eq), chips)

	if errPlain == 0 {
		t.Fatalf("test not in the ISI-limited regime (plain had no errors)")
	}
	if errEq*2 > errPlain {
		t.Errorf("equalizer did not halve errors: plain %d, equalized %d", errPlain, errEq)
	}
}

func TestEqualizerNoOpOnCleanChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	chips := make([]byte, 96)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	p := DefaultParams()
	m, _ := NewModulator(p)
	g, _ := m.GammaWaveform(chips)
	y := dsp.GaussianNoise(make([]complex128, 300+len(g)+128), 1e-5, rng)
	for i, v := range g {
		y[300+i] += complex(0.1*v, 0)
	}
	d, _ := NewDemodulator(p)
	d.Suppress(y)
	acq, err := d.Acquire(y, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := d.DemodChips(y, acq, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	if _, gains := d.echoGains(y, plain, acq.Start, 6); gains != nil {
		t.Errorf("clean channel produced phantom echoes: gains %v", gains)
	}
	soft, err := d.EqualizeAndDemod(y, acq, len(chips), 6)
	if err != nil {
		t.Fatal(err)
	}
	if n := CountChipErrors(HardChips(soft), chips); n != 0 {
		t.Errorf("%d errors on a clean channel", n)
	}
}

func TestEqualizerEstimatesEchoGain(t *testing.T) {
	// A single echo 2 chips late at 50% relative amplitude with a known
	// phase: the joint fit must locate it and recover the gain ratio.
	rng := rand.New(rand.NewSource(46))
	chips := make([]byte, 96)
	for i := range chips {
		chips[i] = byte(rng.Intn(2))
	}
	gRel := complex(0.3, -0.4) // |·| = 0.5
	y := twoPathCapture(t, chips, 2.0, gRel, 1e-6, 12)
	d, _ := NewDemodulator(DefaultParams())
	d.Suppress(y)
	acq, err := d.Acquire(y, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := d.DemodChips(y, acq, len(chips))
	if err != nil {
		t.Fatal(err)
	}
	_, gains := d.echoGains(y, plain, acq.Start, 6)
	// The gains are indexed by half-chip delay: the echo sits at k = 4.
	for k := 1; k < len(gains); k++ {
		if (gains[k] != 0) != (k == 4) {
			t.Fatalf("kept late paths at half-chip delays other than 4: gains %v", gains)
		}
	}
	if gains == nil {
		t.Fatal("found no echo, want one 2 chips late")
	}
	if r := cmplx.Abs(gains[4] / gains[0]); r < 0.4 || r > 0.6 {
		t.Errorf("relative echo gain %.3f, want ~0.5", r)
	}
}
