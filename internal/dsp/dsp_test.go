package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDBConversions(t *testing.T) {
	if !approxEq(DB(100), 20, tol) {
		t.Errorf("DB(100) = %v", DB(100))
	}
	if !approxEq(FromDB(30), 1000, 1e-9) {
		t.Errorf("FromDB(30) = %v", FromDB(30))
	}
	if !approxEq(AmpDB(10), 20, tol) {
		t.Errorf("AmpDB(10) = %v", AmpDB(10))
	}
	if !approxEq(FromAmpDB(40), 100, 1e-9) {
		t.Errorf("FromAmpDB(40) = %v", FromAmpDB(40))
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive should be -Inf")
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		p := math.Abs(v) + 1e-6
		return approxEq(FromDB(DB(p)), p, 1e-9*p) &&
			approxEq(FromAmpDB(AmpDB(p)), p, 1e-9*p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, -math.Pi}, // +π wraps to -π under [-π, π)
		{-math.Pi, -math.Pi},
		{3 * math.Pi, -math.Pi},
		{Tau, 0},
		{-0.1, -0.1},
		{Tau + 0.25, 0.25},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); !approxEq(got, c.want, 1e-12) {
			t.Errorf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapPhaseRangeProperty(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
		w := WrapPhase(v)
		return w >= -math.Pi-1e-9 && w < math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestEnergyPowerScale(t *testing.T) {
	x := []complex128{complex(3, 4), complex(0, 0)}
	if !approxEq(Energy(x), 25, tol) {
		t.Errorf("Energy = %v", Energy(x))
	}
	if !approxEq(Power(x), 12.5, tol) {
		t.Errorf("Power = %v", Power(x))
	}
	Scale(x, 2)
	if !approxEq(Energy(x), 100, tol) {
		t.Errorf("Energy after scale = %v", Energy(x))
	}
	if Power(nil) != 0 {
		t.Error("Power(nil) != 0")
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

func TestRealImagAbsConj(t *testing.T) {
	x := []complex128{complex(1, -2), complex(-3, 4)}
	re, im, ab := Real(x), Imag(x), Abs(x)
	if re[0] != 1 || re[1] != -3 || im[0] != -2 || im[1] != 4 {
		t.Error("Real/Imag wrong")
	}
	if !approxEq(ab[1], 5, tol) {
		t.Error("Abs wrong")
	}
	Conj(x)
	if x[0] != complex(1, 2) {
		t.Error("Conj wrong")
	}
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
		if g := w.CoherentGain(64); g <= 0 || g > 1+1e-12 {
			t.Errorf("%v coherent gain %v out of range", w, g)
		}
		if w.String() == "unknown" {
			t.Errorf("window %d has no name", w)
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

func TestStatsBasics(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if !approxEq(Mean(x), 2.5, tol) {
		t.Error("mean")
	}
	if !approxEq(Variance(x), 1.25, tol) {
		t.Error("variance")
	}
	if !approxEq(Median(x), 2.5, tol) {
		t.Error("even median")
	}
	if !approxEq(Median([]float64{3, 1, 2}), 2, tol) {
		t.Error("odd median")
	}
	if !approxEq(Percentile(x, 0), 1, tol) || !approxEq(Percentile(x, 100), 4, tol) {
		t.Error("percentile extremes")
	}
	if !approxEq(Percentile(x, 50), 2.5, tol) {
		t.Error("percentile 50")
	}
	if Mean(nil) != 0 || Median(nil) != 0 || Percentile(nil, 50) != 0 {
		t.Error("empty-input stats should be 0")
	}
}

func TestQFunction(t *testing.T) {
	if !approxEq(Q(0), 0.5, 1e-12) {
		t.Error("Q(0)")
	}
	// Known value: Q(1.96) ≈ 0.025.
	if math.Abs(Q(1.96)-0.025) > 1e-4 {
		t.Errorf("Q(1.96) = %v", Q(1.96))
	}
	// Inverse round trip.
	for _, p := range []float64{0.4, 0.1, 1e-3, 1e-6} {
		x := QInv(p)
		if math.Abs(Q(x)-p) > 1e-9*p+1e-15 {
			t.Errorf("QInv(%v) -> Q = %v", p, Q(x))
		}
	}
}

func TestMarcumQ(t *testing.T) {
	// Q1(0, b) = exp(-b²/2).
	for _, b := range []float64{0.5, 1, 2, 3} {
		want := math.Exp(-b * b / 2)
		if got := Marcum1(0, b); math.Abs(got-want) > 1e-10 {
			t.Errorf("Q1(0,%v) = %v, want %v", b, got, want)
		}
	}
	// Q1(a, 0) = 1.
	if Marcum1(3, 0) != 1 {
		t.Error("Q1(a,0) != 1")
	}
	// Monotone decreasing in b.
	prev := 1.0
	for b := 0.2; b < 6; b += 0.2 {
		v := Marcum1(1.5, b)
		if v > prev+1e-12 {
			t.Errorf("Marcum Q not decreasing at b=%v", b)
		}
		prev = v
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
	p := Power(x)
	if math.Abs(p-4) > 0.1 {
		t.Errorf("noise power = %v, want 4", p)
	}
	// Real and imaginary parts should each carry half the power.
	pr := EnergyReal(Real(x)) / float64(n)
	if math.Abs(pr-2) > 0.1 {
		t.Errorf("real-part power = %v, want 2", pr)
	}
}

func TestLinspaceLogspace(t *testing.T) {
	l := Linspace(0, 10, 11)
	if len(l) != 11 || l[0] != 0 || l[10] != 10 || !approxEq(l[3], 3, tol) {
		t.Errorf("Linspace wrong: %v", l)
	}
	g := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if !approxEq(g[i], want[i], 1e-9*want[i]) {
			t.Errorf("Logspace[%d] = %v, want %v", i, g[i], want[i])
		}
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
			ac := CircularAutocorr(seq)
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

func TestBarker13Sidelobes(t *testing.T) {
	// Aperiodic autocorrelation peak sidelobe of a Barker code is 1.
	n := len(Barker13)
	for lag := 1; lag < n; lag++ {
		var s float64
		for i := 0; i+lag < n; i++ {
			s += Barker13[i] * Barker13[i+lag]
		}
		if math.Abs(s) > 1+1e-12 {
			t.Errorf("Barker sidelobe at lag %d = %v", lag, s)
		}
	}
}
