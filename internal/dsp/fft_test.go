package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func approxEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func approxEqC(a, b complex128, eps float64) bool { return cmplx.Abs(a-b) <= eps }

// fft and convolve are the allocating forms of FFTInto and ConvolveInto.
func fft(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	FFTInto(out, x)
	return out
}

func convolve(a, b []complex128) []complex128 {
	out := make([]complex128, len(a)+len(b)-1)
	ConvolveInto(out, a, b)
	return out
}

// directConv is the O(n·m) reference for convolve.
func directConv(a, b []complex128) []complex128 {
	out := make([]complex128, len(a)+len(b)-1)
	for i, va := range a {
		for j, vb := range b {
			out[i+j] += va * vb
		}
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := []complex128{1, 0, 0, 0}
	got := fft(x)
	for i, v := range got {
		if !approxEqC(v, 1, tol) {
			t.Errorf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
	// DFT of constant is an impulse at DC.
	c := []complex128{2, 2, 2, 2}
	got = fft(c)
	if !approxEqC(got[0], 8, tol) {
		t.Errorf("DC bin = %v, want 8", got[0])
	}
	for i := 1; i < 4; i++ {
		if !approxEqC(got[i], 0, tol) {
			t.Errorf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestFFTSinusoidBin(t *testing.T) {
	// A complex exponential at bin k concentrates all energy in bin k.
	for _, n := range []int{8, 64, 100, 255} {
		k := 3
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Rect(1, Tau*float64(k*i)/float64(n))
		}
		s := fft(x)
		if !approxEqC(s[k], complex(float64(n), 0), 1e-7*float64(n)) {
			t.Errorf("n=%d: bin %d = %v, want %d", n, k, s[k], n)
		}
		for i := range s {
			if i != k && cmplx.Abs(s[i]) > 1e-6*float64(n) {
				t.Errorf("n=%d: leakage at bin %d: %v", n, i, s[i])
			}
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%300 + 1
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, n)
		y := IFFT(fft(x))
		for i := range x {
			if !approxEqC(x[i], y[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%256 + 1
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, n)
		s := fft(x)
		// Σ|x|² == (1/n) Σ|X|²
		et := Energy(x)
		ef := Energy(s) / float64(n)
		return approxEq(et, ef, 1e-6*(1+et))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 96 // non-power-of-two on purpose
		a := randComplex(r, n)
		b := randComplex(r, n)
		alpha := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa, fb, fs := fft(a), fft(b), fft(sum)
		for i := range fs {
			if !approxEqC(fs[i], fa[i]+alpha*fb[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBluesteinMatchesRadix2(t *testing.T) {
	// Zero-padding a power-of-two input and comparing isn't valid (different
	// DFT lengths); instead compare Bluestein against a direct O(n²) DFT.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{3, 5, 12, 37, 100} {
		x := randComplex(rng, n)
		got := fft(x)
		for k := 0; k < n; k++ {
			var want complex128
			for i := 0; i < n; i++ {
				want += x[i] * cmplx.Rect(1, -Tau*float64(k*i)/float64(n))
			}
			if !approxEqC(got[k], want, 1e-7*float64(n)) {
				t.Errorf("n=%d bin %d: got %v want %v", n, k, got[k], want)
			}
		}
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randComplex(rng, 17)
	b := randComplex(rng, 9)
	got, want := convolve(a, b), directConv(a, b)
	for k := range got {
		if !approxEqC(got[k], want[k], 1e-8) {
			t.Errorf("conv[%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

// TestPowerSpectrumTone: a single rectangular-window segment makes
// WelchPSD the plain periodogram, |FFT(x)|²/n², so a tone's power lands in
// its bin and the bins sum to the signal power.
func TestPowerSpectrumTone(t *testing.T) {
	n := 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(2, Tau*float64(5*i)/float64(n))
	}
	ps, err := WelchPSD(x, n, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	// All power (4.0) should be in bin 5.
	if !approxEq(ps[5], 4, 1e-9) {
		t.Errorf("tone bin power = %v, want 4", ps[5])
	}
	var total float64
	for _, v := range ps {
		total += v
	}
	if p := Energy(x) / float64(n); !approxEq(total, p, 1e-9) {
		t.Errorf("total spectrum power %v != signal power %v", total, p)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 100} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}
