package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func tone(fHz, fsHz float64, n int, amp float64, phase float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(amp, Tau*fHz*float64(i)/fsHz+phase)
	}
	return x
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 128
	fs := 16000.0
	x := randComplex(rng, n)
	s := fft(x)
	for _, bin := range []int{0, 1, 5, 64, 127} {
		f := float64(bin) * fs / float64(n)
		g := NewGoertzel(f, fs)
		got := g.Correlate(x)
		if !approxEqC(got, s[bin], 1e-7) {
			t.Errorf("bin %d: goertzel %v != fft %v", bin, got, s[bin])
		}
	}
}

func TestGoertzelNegativeFrequency(t *testing.T) {
	fs := 16000.0
	n := 160
	x := tone(-1000, fs, n, 1, 0.3)
	gNeg := NewGoertzel(-1000, fs)
	gPos := NewGoertzel(1000, fs)
	eNeg := gNeg.Energy(x)
	ePos := gPos.Energy(x)
	if eNeg < 100*ePos {
		t.Errorf("negative-frequency tone not separated: e(-1k)=%v e(+1k)=%v", eNeg, ePos)
	}
	// Energy of a perfectly aligned tone: |n·amp|² = n².
	if !approxEq(eNeg, float64(n*n), 1e-6*float64(n*n)) {
		t.Errorf("tone energy = %v, want %v", eNeg, n*n)
	}
}

func TestToneBankEnergiesProperty(t *testing.T) {
	// Energies must be non-negative and sum-consistent with Correlate.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, 64)
		tb := NewToneBank([]float64{250, 750}, 8000, len(x))
		e := make([]float64, 2)
		tb.Energies(e, x)
		for _, v := range e {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// serialToneEnergy is the tone bank's energy as Goertzel.Correlate
// computes it, with the heterodyne carried by a repeated multiply from
// sample to sample: the reference the bank's twiddle tables must match.
func serialToneEnergy(fHz, fsHz float64, x []complex128) float64 {
	w := complex(1, 0)
	conjStep := cmplx.Conj(cmplx.Rect(1, Tau*fHz/fsHz))
	var acc complex128
	for _, v := range x {
		acc += v * w
		w *= conjStep
	}
	return real(acc)*real(acc) + imag(acc)*imag(acc)
}

// TestToneBankMatchesSerialCorrelate pins the table-driven bank to the
// serial heterodyne bit for bit, for one, two and three tones (the odd
// tone runs its own pass) and for blocks shorter than the table.
func TestToneBankMatchesSerialCorrelate(t *testing.T) {
	const fs, block = 16000.0, 64
	rng := rand.New(rand.NewSource(5))
	for _, freqs := range [][]float64{{-1000}, {1000, -1000}, {500, -1500, 2750.5}} {
		tb := NewToneBank(freqs, fs, block)
		for _, n := range []int{0, 1, 17, block - 1, block} {
			for trial := 0; trial < 20; trial++ {
				x := randComplex(rng, n)
				got := make([]float64, len(freqs))
				tb.Energies(got, x)
				for k, f := range freqs {
					if want := serialToneEnergy(f, fs, x); math.Float64bits(got[k]) != math.Float64bits(want) {
						t.Fatalf("tones %v, n=%d: tone %d energy %v, serial %v", freqs, n, k, got[k], want)
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a block longer than the table did not panic")
		}
	}()
	NewToneBank([]float64{1000}, fs, 8).Energies(make([]float64, 1), make([]complex128, 9))
}

func TestGoertzelOrthogonalBitInterval(t *testing.T) {
	// FSK tones spaced at 1/T are orthogonal over a bit interval T: the
	// demodulator relies on this to keep inter-tone leakage near zero.
	fs := 16000.0
	bitRate := 500.0
	n := int(fs / bitRate)   // 32 samples per bit
	f0, f1 := 1000.0, 1500.0 // spacing = bitRate, so orthogonal over n samples
	x := tone(f0, fs, n, 1, 0)
	g1 := NewGoertzel(f1, fs)
	leak := g1.Energy(x)
	g0 := NewGoertzel(f0, fs)
	sig := g0.Energy(x)
	if leak > sig*1e-20+1e-9 {
		t.Errorf("orthogonal tones leak: sig=%v leak=%v", sig, leak)
	}
}
