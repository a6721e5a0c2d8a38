package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNoiseShapingFIRValidation(t *testing.T) {
	flat := make([]float64, 64)
	for i := range flat {
		flat[i] = 1
	}
	if _, err := NoiseShapingFIR(flat[:4], 3, Hamming); err == nil {
		t.Error("too few bins accepted")
	}
	if _, err := NoiseShapingFIR(flat, 4, Hamming); err == nil {
		t.Error("even tap count accepted")
	}
	if _, err := NoiseShapingFIR(flat, 1, Hamming); err == nil {
		t.Error("tap count 1 accepted")
	}
	bad := append([]float64(nil), flat...)
	bad[3] = -1
	if _, err := NoiseShapingFIR(bad, 33, Hamming); err == nil {
		t.Error("negative PSD accepted")
	}
}

func TestNoiseShapingFlatTargetPassesWhiteNoise(t *testing.T) {
	flat := make([]float64, 128)
	for i := range flat {
		flat[i] = 1
	}
	f, err := NoiseShapingFIR(flat, 33, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	x := GaussianNoise(make([]complex128, 100000), 2.0, rng)
	y := process(f, append([]complex128(nil), x...))
	if p := Energy(y) / float64(len(y)); math.Abs(p-2) > 0.2 {
		t.Errorf("flat shaping changed power: %v, want ~2", p)
	}
}

func TestNoiseShapingSlopedTarget(t *testing.T) {
	// A low-pass-ish PSD: power 4 in the lower half band, 0.25 in the
	// upper half (16 dB contrast). Shaped noise should show the contrast.
	n := 256
	psd := make([]float64, n)
	for k := range psd {
		f := float64(k) / float64(n) // 0..1 of fs, wrap at 0.5
		if f > 0.5 {
			f -= 1
		}
		if math.Abs(f) < 0.25 {
			psd[k] = 4
		} else {
			psd[k] = 0.25
		}
	}
	sh, err := NoiseShapingFIR(psd, 65, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := GaussianNoise(make([]complex128, 1<<16), 1.0, rng)
	y := process(sh, x)
	// Measure band powers with Goertzel probes at ±0.1·fs and ±0.4·fs.
	lowE := 0.0
	highE := 0.0
	block := 1024
	gLow := NewGoertzel(0.1, 1)
	gHigh := NewGoertzel(0.4, 1)
	for off := 0; off+block <= len(y); off += block {
		lowE += gLow.Energy(y[off : off+block])
		highE += gHigh.Energy(y[off : off+block])
	}
	ratio := lowE / highE
	// Target contrast is 16 (12 dB in power terms: 4/0.25); the windowed
	// 65-tap filter softens it, so accept anything clearly above 5×.
	if ratio < 5 {
		t.Errorf("band power ratio %v, want >> 1", ratio)
	}
	// Total power ≈ mean(psd) ≈ (4+0.25)/2 … by band fraction: 0.5·4+0.5·0.25 = 2.125.
	if p := Energy(y[1000:]) / float64(len(y)-1000); math.Abs(p-2.125) > 0.5 {
		t.Errorf("total power %v, want ~2.1", p)
	}
}

func TestWelchPSDWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := GaussianNoise(make([]complex128, 1<<15), 3.0, rng)
	psd, err := WelchPSD(x, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range psd {
		total += v
	}
	if math.Abs(total-3) > 0.2 {
		t.Errorf("PSD total %v, want ~3 (signal power)", total)
	}
	// Flat within averaging noise: no bin more than 3x the mean.
	mean := total / float64(len(psd))
	for i, v := range psd {
		if v > 3*mean {
			t.Errorf("bin %d = %v sticks out of a white spectrum (mean %v)", i, v, mean)
		}
	}
}

func TestWelchPSDTone(t *testing.T) {
	fs := 16000.0
	n := 1 << 14
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(2, Tau*2000*float64(i)/fs)
	}
	psd, err := WelchPSD(x, 512, Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Power 4 concentrated near 2 kHz.
	inBand := BandPower(psd, fs, 1800, 2200)
	if math.Abs(inBand-4) > 0.2 {
		t.Errorf("tone band power %v, want ~4", inBand)
	}
	if out := BandPower(psd, fs, -4200, -3800); out > 0.01 {
		t.Errorf("mirror band power %v, want ~0", out)
	}
}

func TestWelchPSDValidation(t *testing.T) {
	if _, err := WelchPSD(make([]complex128, 100), 4, Hann); err == nil {
		t.Error("tiny nfft accepted")
	}
	if _, err := WelchPSD(make([]complex128, 10), 64, Hann); err == nil {
		t.Error("short signal accepted")
	}
}

func TestWelchConfirmsChannelColoring(t *testing.T) {
	// End-to-end: the Wenz shaper's output PSD slope measured by Welch.
	n := 256
	psd := make([]float64, n)
	for k := 0; k < n; k++ {
		f := float64(k) / float64(n)
		if f > 0.5 {
			f -= 1
		}
		psd[k] = math.Pow(10, -1.0*f) // 10 dB/unit-frequency slope
	}
	var mean float64
	for _, p := range psd {
		mean += p
	}
	mean /= float64(n)
	for k := range psd {
		psd[k] /= mean
	}
	sh, err := NoiseShapingFIR(psd, 65, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	y := process(sh, GaussianNoise(make([]complex128, 1<<15), 1, rng))
	est, err := WelchPSD(y, 256, Hann)
	if err != nil {
		t.Fatal(err)
	}
	lo := BandPower(est, 1, -0.45, -0.35)
	hi := BandPower(est, 1, 0.35, 0.45)
	wantRatio := math.Pow(10, 0.8) // 10^( -1.0·(-0.4) − (−1.0·0.4) ) = 10^0.8
	got := lo / hi
	if got < wantRatio/1.6 || got > wantRatio*1.6 {
		t.Errorf("measured band ratio %v, target %v", got, wantRatio)
	}
}

// TestCFIRInPlace pins the aliasing contract documented on ProcessInto:
// filtering a buffer into itself must match the two-buffer reference
// exactly, including across chunked streaming calls. The channel layer's
// noise shaper relies on this (it colors its noise scratch in place).
func TestCFIRInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	taps := make([]complex128, 21)
	for i := range taps {
		taps[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	x := make([]complex128, 300)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	ref := NewCFIR(taps)
	want := process(ref, x)

	// One-shot in-place.
	f := NewCFIR(taps)
	buf := append([]complex128(nil), x...)
	f.ProcessInto(buf, buf)
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("in-place output differs at %d: %v vs %v", i, buf[i], want[i])
		}
	}

	// Chunked streaming in-place (uneven chunk sizes straddle the ring).
	f.Reset()
	buf2 := append([]complex128(nil), x...)
	for lo := 0; lo < len(buf2); {
		hi := lo + 37
		if hi > len(buf2) {
			hi = len(buf2)
		}
		f.ProcessInto(buf2[lo:hi], buf2[lo:hi])
		lo = hi
	}
	for i := range want {
		if buf2[i] != want[i] {
			t.Fatalf("chunked in-place differs at %d: %v vs %v", i, buf2[i], want[i])
		}
	}
}

// process filters x into a fresh slice through ProcessInto.
func process(f *CFIR, x []complex128) []complex128 {
	out := make([]complex128, len(x))
	f.ProcessInto(out, x)
	return out
}
