package vanatta

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"vab/internal/piezo"
)

const (
	cWater = 1480.0
	fc     = 18500.0
)

func newLinear(t *testing.T, n int) *Array {
	t.Helper()
	lambda := cWater / fc
	a, err := NewUniformLinear(n, lambda/2, piezo.MustDefault(), cWater)
	if err != nil {
		t.Fatal(err)
	}
	// Zero out interconnect imperfections for the geometry tests; dedicated
	// tests re-enable them.
	a.LineLossDB = 0
	a.LineDelaySec = 0
	return a
}

func TestVec3Basics(t *testing.T) {
	v := Vec3{3, 4, 0}
	if v.Norm() != 5 {
		t.Error("Norm")
	}
	u := v.Unit()
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Error("Unit")
	}
	if (Vec3{}).Unit() != (Vec3{}) {
		t.Error("zero Unit should stay zero")
	}
	if v.Dot(Vec3{1, 0, 0}) != 3 {
		t.Error("Dot")
	}
}

func TestDirectionXZ(t *testing.T) {
	d := DirectionXZ(0)
	if math.Abs(d.Z-1) > 1e-12 || math.Abs(d.X) > 1e-12 {
		t.Errorf("broadside direction = %+v", d)
	}
	d = DirectionXZ(math.Pi / 2)
	if math.Abs(d.X-1) > 1e-12 || math.Abs(d.Z) > 1e-9 {
		t.Errorf("end-fire direction = %+v", d)
	}
}

func TestNewUniformLinearStructure(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 16} {
		a := newLinear(t, n)
		if a.N() != n {
			t.Fatalf("n=%d: N=%d", n, a.N())
		}
		if err := validateWiring(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !centroSymmetric(a, 1e-12) {
			t.Errorf("n=%d: not centro-symmetric", n)
		}
		wantPairs := n / 2
		if len(a.Pairs) != wantPairs {
			t.Errorf("n=%d: %d pairs, want %d", n, len(a.Pairs), wantPairs)
		}
		if n%2 == 1 && len(a.SelfPaired) != 1 {
			t.Errorf("n=%d: odd array needs a self-paired center", n)
		}
	}
}

func TestNewUniformLinearErrors(t *testing.T) {
	tr := piezo.MustDefault()
	if _, err := NewUniformLinear(0, 0.04, tr, cWater); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewUniformLinear(4, 0, tr, cWater); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := NewUniformLinear(4, 0.04, nil, cWater); err == nil {
		t.Error("nil transducer accepted")
	}
	if _, err := NewUniformLinear(4, 0.04, tr, 0); err == nil {
		t.Error("zero sound speed accepted")
	}
}

func TestValidateCatchesBadWiring(t *testing.T) {
	a := newLinear(t, 4)
	a.Pairs[0].A = 99
	if validateWiring(a) == nil {
		t.Error("out-of-range pair accepted")
	}
	b := newLinear(t, 4)
	b.Pairs[0] = Pair{A: 1, B: 1}
	if validateWiring(b) == nil {
		t.Error("self-loop pair accepted")
	}
	c := newLinear(t, 4)
	c.Pairs[1] = c.Pairs[0] // element 0 used twice, element 1 unused
	if validateWiring(c) == nil {
		t.Error("double-used element accepted")
	}
}

func TestRetrodirectiveFlatAcrossAngle(t *testing.T) {
	// The defining property: monostatic Van Atta gain is angle-independent
	// (ideal elements, equal lines), while the specular response collapses
	// off broadside.
	a := newLinear(t, 8)
	g0 := a.MonostaticGainDB(fc, 0)
	for _, deg := range []float64{10, 25, 45, 60, 80} {
		th := deg * math.Pi / 180
		g := a.MonostaticGainDB(fc, th)
		if math.Abs(g-g0) > 0.1 {
			t.Errorf("van atta gain at %v° = %v dB, broadside %v dB (should be flat)", deg, g, g0)
		}
	}
	// Specular baseline: equal at broadside, far below at 45°.
	s0 := a.MonostaticSpecularGainDB(fc, 0)
	if math.Abs(s0-g0) > 1e-6 {
		t.Errorf("at broadside specular %v dB should equal van atta %v dB", s0, g0)
	}
	s45 := a.MonostaticSpecularGainDB(fc, math.Pi/4)
	if s45 > g0-10 {
		t.Errorf("specular at 45° = %v dB, want ≥10 dB below %v dB", s45, g0)
	}
}

func TestGainScalesAsNSquared(t *testing.T) {
	// Field gain N ⇒ power gain N² ⇒ +6 dB per doubling.
	prev := math.Inf(-1)
	for _, n := range []int{2, 4, 8, 16} {
		a := newLinear(t, n)
		g := a.MonostaticGainDB(fc, 0.3) // off-broadside on purpose
		want := 20 * math.Log10(float64(n))
		if math.Abs(g-want) > 0.2 {
			t.Errorf("n=%d: gain %v dB, want %v dB", n, g, want)
		}
		if g <= prev {
			t.Errorf("gain should grow with N")
		}
		prev = g
	}
}

func TestScatterReciprocityProperty(t *testing.T) {
	// Acoustic reciprocity: swapping incident and observed directions must
	// leave the bistatic response unchanged.
	a := newLinear(t, 6)
	f := func(t1, t2 float64) bool {
		th1 := math.Mod(t1, math.Pi/2)
		th2 := math.Mod(t2, math.Pi/2)
		d1, d2 := DirectionXZ(th1), DirectionXZ(th2)
		fwd := a.Scatter(fc, d1, d2)
		rev := a.Scatter(fc, d2, d1)
		return cmplx.Abs(fwd-rev) < 1e-9*(1+cmplx.Abs(fwd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScatterBistaticPeakAtRetroDirection(t *testing.T) {
	// With illumination from θ, the re-radiated beam should peak back at θ
	// (retro) rather than at the specular direction −θ.
	a := newLinear(t, 8)
	th := 0.5
	in := DirectionXZ(th)
	retro := cmplx.Abs(a.Scatter(fc, in, DirectionXZ(th)))
	spec := cmplx.Abs(a.Scatter(fc, in, DirectionXZ(-th)))
	if retro < 2*spec {
		t.Errorf("retro response %v should dominate specular direction %v", retro, spec)
	}
	// And the converse for the specular array.
	sRetro := cmplx.Abs(a.ScatterSpecular(fc, in, DirectionXZ(th)))
	sSpec := cmplx.Abs(a.ScatterSpecular(fc, in, DirectionXZ(-th)))
	if sSpec < 2*sRetro {
		t.Errorf("specular array should beam to −θ: retro %v, spec %v", sRetro, sSpec)
	}
}

func TestLineLossReducesGain(t *testing.T) {
	a := newLinear(t, 8)
	ideal := a.MonostaticGainDB(fc, 0.2)
	a.LineLossDB = 3
	lossy := a.MonostaticGainDB(fc, 0.2)
	// Every scattered path traverses the interconnect exactly once, so a
	// 3 dB line loss costs exactly 3 dB of monostatic gain.
	if math.Abs((ideal-lossy)-3) > 0.1 {
		t.Errorf("3 dB line loss changed gain by %v dB, want 3", ideal-lossy)
	}
}

func TestElementRolloffAppliesTwice(t *testing.T) {
	a := newLinear(t, 4)
	d := DirectionXZ(0.1)
	onRes := cmplx.Abs(a.Scatter(fc, d, d))
	off := fc * 1.05
	offRes := cmplx.Abs(a.Scatter(off, d, d))
	resp := piezo.MustDefault()
	h := cmplx.Abs(resp.Response(off))
	// scatter ∝ |H|², geometry unchanged (small spacing change effect
	// negligible monostatically for a Van Atta — it stays coherent).
	wantRatio := h * h
	gotRatio := offRes / onRes
	if math.Abs(gotRatio-wantRatio) > 0.05*wantRatio {
		t.Errorf("off-resonance ratio %v, want %v", gotRatio, wantRatio)
	}
}

func TestOrientationSweepShapes(t *testing.T) {
	a := newLinear(t, 8)
	thetas := []float64{-1, -0.5, 0, 0.5, 1}
	va, sp := a.OrientationSweep(fc, thetas)
	if len(va) != len(thetas) || len(sp) != len(thetas) {
		t.Fatal("sweep lengths wrong")
	}
	// Van Atta variance across angle tiny; specular variance large.
	var vaSpread, spSpread float64
	for i := range va {
		vaSpread = math.Max(vaSpread, math.Abs(va[i]-va[0]))
		spSpread = math.Max(spSpread, math.Abs(sp[i]-sp[0]))
	}
	if vaSpread > 0.5 {
		t.Errorf("van atta spread %v dB", vaSpread)
	}
	if spSpread < 10 {
		t.Errorf("specular spread only %v dB", spSpread)
	}
}

func TestMinMonostaticGain(t *testing.T) {
	a := newLinear(t, 8)
	min := a.MinMonostaticGainDB(fc, math.Pi/2, 45)
	want := 20 * math.Log10(8)
	if math.Abs(min-want) > 0.2 {
		t.Errorf("worst-case gain %v dB, want %v", min, want)
	}
}

func TestSingleElementIsUnitScatterer(t *testing.T) {
	a := newLinear(t, 1)
	d := DirectionXZ(0.7)
	if g := cmplx.Abs(a.Scatter(fc, d, d)); math.Abs(g-1) > 0.01 {
		t.Errorf("single element |scatter| = %v, want 1", g)
	}
}

func TestLinearArrayAlsoFlatMonostatically(t *testing.T) {
	// Centro-symmetric pairing makes even the *linear* array's monostatic
	// response flat in both axes (phases cancel pairwise for any incident
	// direction); the planar layout's advantage lies in aperture for a
	// given strap length and in bistatic behaviour, not in the monostatic
	// worst case. Pin that down so nobody oversells a 2D layout.
	a := newLinear(t, 16)
	sector := 100.0 * math.Pi / 180
	worst := minMonostaticGainDB2D(a, fc, sector, 10)
	want := 20 * math.Log10(16)
	if math.Abs(worst-want) > 0.2 {
		t.Errorf("linear worst-case 2D gain %.2f dB, want ~%.2f", worst, want)
	}
}

func TestDirection3D(t *testing.T) {
	d := direction3D(0, 0)
	if math.Abs(d.Z-1) > 1e-12 {
		t.Errorf("broadside: %+v", d)
	}
	d = direction3D(0, math.Pi/2)
	if math.Abs(d.Y-1) > 1e-12 {
		t.Errorf("straight up: %+v", d)
	}
	for _, az := range []float64{0.3, 1.0} {
		for _, el := range []float64{-0.5, 0.7} {
			if n := direction3D(az, el).Norm(); math.Abs(n-1) > 1e-12 {
				t.Errorf("not unit: az=%v el=%v |d|=%v", az, el, n)
			}
		}
	}
}

// centroSymmetric reports whether every pair satisfies r_B ≈ −r_A within
// tol meters, the geometric condition for perfect retrodirectivity.
func centroSymmetric(a *Array, tol float64) bool {
	for _, p := range a.Pairs {
		ra, rb := a.Positions[p.A], a.Positions[p.B]
		if (Vec3{ra.X + rb.X, ra.Y + rb.Y, ra.Z + rb.Z}).Norm() > tol {
			return false
		}
	}
	for _, s := range a.SelfPaired {
		if a.Positions[s].Norm() > tol {
			return false
		}
	}
	return true
}

// direction3D returns the unit direction at azimuth az (rotation in the
// x-z plane) and elevation el (tilt toward y), both in radians: the node
// rotated arbitrarily in two axes as a drifting mooring would be.
func direction3D(az, el float64) Vec3 {
	return Vec3{
		X: math.Sin(az) * math.Cos(el),
		Y: math.Sin(el),
		Z: math.Cos(az) * math.Cos(el),
	}
}

// minMonostaticGainDB2D returns the worst-case monostatic gain over a
// two-axis orientation sector: azimuth and elevation each swept across
// ±sector/2 in the given number of steps.
func minMonostaticGainDB2D(a *Array, fHz, sector float64, steps int) float64 {
	min := math.Inf(1)
	for i := 0; i <= steps; i++ {
		az := -sector/2 + sector*float64(i)/float64(steps)
		for j := 0; j <= steps; j++ {
			el := -sector/2 + sector*float64(j)/float64(steps)
			d := direction3D(az, el)
			db := 20 * math.Log10(cmplx.Abs(a.Scatter(fHz, d, d)))
			if db < min {
				min = db
			}
		}
	}
	return min
}

// validateWiring checks an array's structural consistency: every element
// belongs to exactly one pair (or is self-paired).
func validateWiring(a *Array) error {
	used := make([]int, len(a.Positions))
	for _, p := range a.Pairs {
		if p.A < 0 || p.A >= len(a.Positions) || p.B < 0 || p.B >= len(a.Positions) {
			return fmt.Errorf("vanatta: pair (%d,%d) out of range", p.A, p.B)
		}
		if p.A == p.B {
			return fmt.Errorf("vanatta: pair (%d,%d) connects an element to itself; use SelfPaired", p.A, p.B)
		}
		used[p.A]++
		used[p.B]++
	}
	for _, s := range a.SelfPaired {
		if s < 0 || s >= len(a.Positions) {
			return fmt.Errorf("vanatta: self-paired index %d out of range", s)
		}
		used[s]++
	}
	for i, u := range used {
		if u != 1 {
			return fmt.Errorf("vanatta: element %d used %d times, want exactly 1", i, u)
		}
	}
	return nil
}
