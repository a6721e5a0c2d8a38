package phy

import (
	"math"
	"math/rand"
	"testing"
)

// TestSinNonNegMatchesSin pins sinNonNeg to math.Sin(p) >= 0 on the phase
// sequences GammaWaveform and skewedGamma accumulate for both tones,
// including node clocks off by ±100 ppm, and on phases within 1e-5 of kπ.
func TestSinNonNegMatchesSin(t *testing.T) {
	p := DefaultParams()
	check := func(phase float64) {
		t.Helper()
		if got, want := sinNonNeg(phase), math.Sin(phase) >= 0; got != want {
			t.Fatalf("sinNonNeg(%v) = %v, math.Sin says %v", phase, got, want)
		}
	}
	for _, ppm := range []float64{0, 100, -100} {
		delta := 1 + ppm*1e-6
		for _, f := range []float64{p.F0, p.F1} {
			step := 2 * math.Pi * f / p.SampleRate
			if ppm != 0 {
				step = 2 * math.Pi * f * delta / p.SampleRate
			}
			phase := 0.0
			for i := 0; i < 1<<16; i++ {
				check(phase)
				phase += step
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k <= 10000; k++ {
		c := float64(k) * math.Pi
		check(c)
		check(math.Nextafter(c, 0))
		check(math.Nextafter(c, math.Inf(1)))
		for j := 0; j < 4; j++ {
			check(c + (2*rng.Float64()-1)*1e-5)
		}
	}
}

// TestDivRealMatchesDivision pins divReal to complex division on random
// finite values, signed zeros included.
func TestDivRealMatchesDivision(t *testing.T) {
	negZero := math.Copysign(0, -1)
	parts := func(rng *rand.Rand) float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		z := complex(parts(rng), parts(rng))
		f := float64(1 + rng.Intn(64))
		got, want := divReal(z, f), z/complex(f, 0)
		if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Fatalf("divReal(%v, %v) = %v, division gives %v", z, f, got, want)
		}
	}
}

// TestSuppressMatchesDivision pins the written-out real-divisor division in
// Suppress to the complex division it replaces, on random finite captures
// with signed zeros mixed in.
func TestSuppressMatchesDivision(t *testing.T) {
	d, err := NewDemodulator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	l := d.p.SamplesPerChip()
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		y := make([]complex128, 3*l+rng.Intn(200))
		for i := range y {
			switch rng.Intn(5) {
			case 0:
				y[i] = complex(negZero, negZero)
			case 1:
				y[i] = complex(0, negZero)
			default:
				y[i] = complex(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(20)-10)), rng.NormFloat64())
			}
		}
		want := make([]complex128, len(y))
		var sum complex128
		hist := make([]complex128, l)
		for i, v := range y {
			sum += v
			sum -= hist[i%l]
			hist[i%l] = v
			want[i] = v - sum/complex(float64(min(i+1, l)), 0)
		}
		got := d.Suppress(append([]complex128(nil), y...))
		for i := range got {
			if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("trial %d sample %d: %v, division gives %v", trial, i, got[i], want[i])
			}
		}
	}
}
