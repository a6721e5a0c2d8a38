package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEnergyPowerScale(t *testing.T) {
	x := []complex128{complex(3, 4), complex(0, 0)}
	if !approxEq(Energy(x), 25, tol) {
		t.Errorf("Energy = %v", Energy(x))
	}
	Scale(x, 2)
	if !approxEq(Energy(x), 100, tol) {
		t.Errorf("Energy after scale = %v", Energy(x))
	}
	if Energy(nil) != 0 {
		t.Error("Energy(nil) != 0")
	}
}

func TestMixInto(t *testing.T) {
	dst := make([]complex128, 5)
	src := []complex128{1, 1, 1}
	MixInto(dst, src, 3, complex(2, 0)) // only two samples fit
	want := []complex128{0, 0, 0, 2, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	// Negative offset clips the head.
	dst2 := make([]complex128, 3)
	MixInto(dst2, src, -1, 1)
	if dst2[0] != 1 || dst2[1] != 1 || dst2[2] != 0 {
		t.Errorf("negative offset mix wrong: %v", dst2)
	}
}

func TestAddIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	AddInto(make([]complex128, 2), make([]complex128, 3))
}

func TestWindowsBasics(t *testing.T) {
	for _, w := range []Window{Rectangular, Hann, Hamming, Blackman, BlackmanHarris} {
		c := w.Coefficients(64)
		if len(c) != 64 {
			t.Fatalf("%v: wrong length", w)
		}
		for i, v := range c {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v coeff[%d] = %v outside [0,1]", w, i, v)
			}
		}
		// Symmetry.
		for i := range c {
			if !approxEq(c[i], c[len(c)-1-i], 1e-12) {
				t.Errorf("%v not symmetric at %d", w, i)
			}
		}
	}
	if Hann.Coefficients(1)[0] != 1 {
		t.Error("single-point window should be 1")
	}
}

func TestHannEndpointsAndPeak(t *testing.T) {
	c := Hann.Coefficients(65)
	if !approxEq(c[0], 0, 1e-12) || !approxEq(c[64], 0, 1e-12) {
		t.Error("Hann endpoints should be 0")
	}
	if !approxEq(c[32], 1, 1e-12) {
		t.Error("Hann center should be 1")
	}
}

func TestWilsonCI(t *testing.T) {
	lo, hi := WilsonCI(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Error("empty trials should give [0,1]")
	}
	lo, hi = WilsonCI(50, 100, 1.96)
	if lo > 0.5 || hi < 0.5 {
		t.Errorf("CI [%v, %v] should bracket 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI [%v, %v] too wide for n=100", lo, hi)
	}
	// Zero successes still give nonzero upper bound.
	lo, hi = WilsonCI(0, 100, 1.96)
	if lo != 0 || hi <= 0 || hi > 0.1 {
		t.Errorf("CI for 0/100 = [%v, %v]", lo, hi)
	}
}

func TestWilsonCIOrderProperty(t *testing.T) {
	f := func(k, n uint16) bool {
		nn := int(n%1000) + 1
		kk := int(k) % (nn + 1)
		lo, hi := WilsonCI(kk, nn, 1.96)
		p := float64(kk) / float64(nn)
		return lo <= p+1e-12 && p <= hi+1e-12 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussianNoiseStats(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 200000
	x := GaussianNoise(make([]complex128, n), 4.0, rng)
	p := Energy(x) / float64(n)
	if math.Abs(p-4) > 0.1 {
		t.Errorf("noise power = %v, want 4", p)
	}
	// Real and imaginary parts should each carry half the power.
	var pr float64
	for _, v := range x {
		pr += real(v) * real(v)
	}
	pr /= float64(n)
	if math.Abs(pr-2) > 0.1 {
		t.Errorf("real-part power = %v, want 2", pr)
	}
}

func TestMSequenceAutocorrelation(t *testing.T) {
	for deg := 3; deg <= 15; deg++ {
		seq, err := MSequence(deg)
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		n := (1 << deg) - 1
		if len(seq) != n {
			t.Fatalf("degree %d: length %d, want %d", deg, len(seq), n)
		}
		if deg <= 10 {
			// Full two-valued autocorrelation check (O(n²), so only for
			// short sequences).
			ac := circularAutocorr(seq)
			if !approxEq(ac[0], float64(n), 1e-9) {
				t.Errorf("degree %d: zero-lag autocorr %v, want %d", deg, ac[0], n)
			}
			for lag := 1; lag < n; lag++ {
				if !approxEq(ac[lag], -1, 1e-9) {
					t.Fatalf("degree %d: autocorr at lag %d = %v, want -1 (not maximal-length)", deg, lag, ac[lag])
				}
			}
		} else {
			// Balance property: maximal-length sequences have exactly one
			// more +1 than -1 chips.
			var sum float64
			for _, v := range seq {
				sum += v
			}
			if sum != 1 {
				t.Errorf("degree %d: chip balance %v, want 1", deg, sum)
			}
		}
	}
	if _, err := MSequence(2); err == nil {
		t.Error("degree 2 should be unsupported")
	}
}

// circularAutocorr returns the circular autocorrelation of a ±1 sequence at
// every lag.
func circularAutocorr(seq []float64) []float64 {
	n := len(seq)
	out := make([]float64, n)
	for lag := 0; lag < n; lag++ {
		var s float64
		for i := 0; i < n; i++ {
			s += seq[i] * seq[(i+lag)%n]
		}
		out[lag] = s
	}
	return out
}
