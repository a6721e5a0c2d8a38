package ocean

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func riverGeom(r float64) Geometry {
	return Geometry{SourceDepth: 2, ReceiverDepth: 2.5, Range: r}
}

func TestMultipathDirectPath(t *testing.T) {
	e := TestTank() // boundaries far away
	g := Geometry{SourceDepth: 50, ReceiverDepth: 50, Range: 10}
	arr := e.Multipath(g, DefaultMultipathConfig(18.5e3))
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	// First arrival is the direct path: no bounces, delay = r/c.
	d := arr[0]
	if d.SurfaceBounces != 0 || d.BottomBounces != 0 {
		t.Errorf("first arrival has bounces: %+v", d)
	}
	c := e.MeanSoundSpeed()
	if math.Abs(d.Delay-10/c) > 1e-9 {
		t.Errorf("direct delay %v, want %v", d.Delay, 10/c)
	}
	// Amplitude ≈ 1/L^(k/2) with k=2 → 1/10, times tiny absorption.
	if m := cmplx.Abs(d.Gain); math.Abs(m-0.1) > 0.005 {
		t.Errorf("direct gain %v, want ~0.1", m)
	}
}

func TestMultipathSortedAndDirectStrongest(t *testing.T) {
	e := CharlesRiver()
	arr := e.Multipath(riverGeom(50), DefaultMultipathConfig(18.5e3))
	if len(arr) < 3 {
		t.Fatalf("river at 50 m should be rich in multipath, got %d arrivals", len(arr))
	}
	for i := 1; i < len(arr); i++ {
		if arr[i].Delay < arr[i-1].Delay {
			t.Fatal("arrivals not sorted by delay")
		}
	}
	// Direct path (index of minimal bounces) should be the strongest.
	best := 0
	for i, a := range arr {
		if cmplx.Abs(a.Gain) > cmplx.Abs(arr[best].Gain) {
			best = i
		}
	}
	if arr[best].SurfaceBounces+arr[best].BottomBounces > 1 {
		t.Errorf("strongest arrival has %d bounces", arr[best].SurfaceBounces+arr[best].BottomBounces)
	}
}

func TestMultipathBounceCounts(t *testing.T) {
	e := CharlesRiver()
	arr := e.Multipath(riverGeom(30), MultipathConfig{MaxOrder: 2, MinRelAmpDB: 80, FrequencyHz: 18.5e3})
	// Expect to find the four first-order families: direct, surface-only,
	// bottom-only, and surface+bottom.
	type key struct{ s, b int }
	seen := map[key]bool{}
	for _, a := range arr {
		seen[key{a.SurfaceBounces, a.BottomBounces}] = true
	}
	for _, k := range []key{{0, 0}, {1, 0}, {0, 1}, {1, 1}} {
		if !seen[k] {
			t.Errorf("missing arrival family surface=%d bottom=%d", k.s, k.b)
		}
	}
}

func TestMultipathFloorFiltersWeakArrivals(t *testing.T) {
	e := CharlesRiver()
	loose := e.Multipath(riverGeom(50), MultipathConfig{MaxOrder: 8, MinRelAmpDB: 60, FrequencyHz: 18.5e3})
	tight := e.Multipath(riverGeom(50), MultipathConfig{MaxOrder: 8, MinRelAmpDB: 10, FrequencyHz: 18.5e3})
	if len(tight) >= len(loose) {
		t.Errorf("tight floor kept %d arrivals, loose %d", len(tight), len(loose))
	}
}

func TestMultipathPanicsOnZeroRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	CharlesRiver().Multipath(Geometry{SourceDepth: 1, ReceiverDepth: 1}, DefaultMultipathConfig(18.5e3))
}

func TestDelaySpreadGrowsWithRangeShrink(t *testing.T) {
	// In a shallow waveguide, delay spread relative to direct delay falls
	// with range (rays flatten out), but absolute spread should be positive
	// whenever there is more than one arrival.
	e := CharlesRiver()
	arr := e.Multipath(riverGeom(100), DefaultMultipathConfig(18.5e3))
	ds := DelaySpread(arr)
	if len(arr) > 1 && ds <= 0 {
		t.Errorf("delay spread %v with %d arrivals", ds, len(arr))
	}
	if DelaySpread(nil) != 0 {
		t.Error("empty delay spread should be 0")
	}
}

func TestRicianK(t *testing.T) {
	if !math.IsInf(RicianK(nil), 1) {
		t.Error("no arrivals → K = +Inf")
	}
	one := []Arrival{{Gain: complex(0.1, 0)}}
	if !math.IsInf(RicianK(one), 1) {
		t.Error("single arrival → K = +Inf")
	}
	two := []Arrival{{Gain: complex(1, 0)}, {Gain: complex(0.1, 0)}}
	k := RicianK(two)
	if math.Abs(k-20) > 1e-9 {
		t.Errorf("K = %v dB, want 20", k)
	}
}

func TestSurfaceReflection(t *testing.T) {
	e := CharlesRiver()
	r := e.SurfaceReflection(0.2, 18.5e3)
	// Nearly calm river: |R| ≈ 1, phase flip.
	if real(r) > -0.9 {
		t.Errorf("calm surface reflection %v, want near -1", r)
	}
	// Rough ocean surface loses coherent energy at steep angles.
	o := AtlanticCoastal()
	steep := cmplx.Abs(o.SurfaceReflection(0.8, 18.5e3))
	shallow := cmplx.Abs(o.SurfaceReflection(0.05, 18.5e3))
	if steep >= shallow {
		t.Errorf("roughness loss should grow with grazing angle: steep %v shallow %v", steep, shallow)
	}
}

func TestBottomReflectionPhysics(t *testing.T) {
	e := AtlanticCoastal()
	// Below critical angle: |R| near 1 (minus configured bounce loss).
	crit := criticalAngle(e)
	if crit <= 0 {
		t.Fatal("sandy bottom should have a critical angle")
	}
	sub := cmplx.Abs(e.BottomReflection(crit * 0.5))
	lossFactor := math.Pow(10, -e.BottomLossDB/20)
	if math.Abs(sub-lossFactor) > 0.05 {
		t.Errorf("sub-critical |R| = %v, want ~%v", sub, lossFactor)
	}
	// Far above critical: partial transmission, |R| clearly below 1.
	steep := cmplx.Abs(e.BottomReflection(math.Pi / 2 * 0.95))
	if steep >= sub {
		t.Errorf("steep |R| = %v should be below sub-critical %v", steep, sub)
	}
	// Grazing limit returns -1.
	if g := e.BottomReflection(0); g != complex(-1, 0) {
		t.Errorf("grazing reflection = %v, want -1", g)
	}
}

func TestBottomReflectionPassivityProperty(t *testing.T) {
	// |R| ≤ 1 for all grazing angles in (0, π/2]: a passive boundary cannot
	// amplify.
	envs := []*Environment{CharlesRiver(), AtlanticCoastal(), TestTank()}
	f := func(th float64) bool {
		theta := math.Mod(math.Abs(th), math.Pi/2)
		if theta == 0 {
			theta = 0.01
		}
		for _, e := range envs {
			if cmplx.Abs(e.BottomReflection(theta)) > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCriticalAngleSlowBottom(t *testing.T) {
	e := CharlesRiver()
	e.BottomSoundSpeed = 1400 // slower than water
	if criticalAngle(e) != 0 {
		t.Error("slow bottom should have no critical angle")
	}
}

func TestDopplerSpreadAndCoherence(t *testing.T) {
	e := AtlanticCoastal()
	bd := e.DopplerSpread(18.5e3, 0)
	if bd <= 0 {
		t.Fatal("ocean Doppler spread should be positive")
	}
	// v/c·f sanity: 0.3 m/s / ~1490 m/s · 18.5 kHz ≈ 3.7 Hz.
	if bd < 1 || bd > 10 {
		t.Errorf("Doppler spread %v Hz implausible", bd)
	}
	// A static channel has no spread, so its coherence time is unbounded.
	if calm := TestTank().DopplerSpread(18.5e3, 0); calm != 0 {
		t.Errorf("static channel Doppler spread %v, want 0", calm)
	}
}

func TestFadingProcessStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fp := NewFadingProcess(5, 1000, 0.5, rng)
	n := 200000
	// Applied to ones, the process leaves its gain sequence in place.
	gains := make([]complex128, n)
	for i := range gains {
		gains[i] = 1
	}
	fp.Apply(gains)
	var mean complex128
	var pw float64
	for _, g := range gains {
		mean += g
		d := g - 1
		pw += real(d)*real(d) + imag(d)*imag(d)
	}
	mean /= complex(float64(n), 0)
	if cmplx.Abs(mean-1) > 0.05 {
		t.Errorf("fading mean %v, want ~1", mean)
	}
	// Stationary fluctuation power should approximate depth² = 0.25.
	if got := pw / float64(n); math.Abs(got-0.25) > 0.08 {
		t.Errorf("fluctuation power %v, want ~0.25", got)
	}
}

func TestFadingProcessStatic(t *testing.T) {
	fp := NewFadingProcess(0, 1000, 1, rand.New(rand.NewSource(1)))
	x := []complex128{2, 3}
	fp.Apply(x)
	if x[0] != 2 || x[1] != 3 {
		t.Error("static fading must not alter the signal")
	}
}

// criticalAngle returns the bottom critical grazing angle in radians, below
// which bottom bounces are near-lossless; 0 when the bottom is slower than
// the water.
func criticalAngle(e *Environment) float64 {
	c1 := e.MeanSoundSpeed()
	if e.BottomSoundSpeed <= c1 {
		return 0
	}
	return math.Acos(c1 / e.BottomSoundSpeed)
}
