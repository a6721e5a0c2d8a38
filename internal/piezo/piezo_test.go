package piezo

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// openLoad approximates an open switch (large off-impedance), the far
// side of the short/open contrast the depth tests measure.
const openLoad = complex(1e9, 0)

func TestNewTransducerRealizesParams(t *testing.T) {
	tr := MustDefault()
	if fs := tr.SeriesResonance(); math.Abs(fs-resonanceHz) > 1 {
		t.Errorf("series resonance %v, want %v", fs, resonanceHz)
	}
	if q := tr.Qm(); math.Abs(q-qm) > 0.01*qm {
		t.Errorf("Qm %v, want %v", q, qm)
	}
	if k2 := measuredK2(tr); math.Abs(k2-couplingK2) > 1e-9 {
		t.Errorf("k² %v, want %v", k2, couplingK2)
	}
	if tr.C0 != c0 {
		t.Errorf("C0 %v, want %v", tr.C0, c0)
	}
	if fp := parallelResonance(tr); fp <= tr.SeriesResonance() {
		t.Error("anti-resonance must sit above series resonance")
	}
}

func TestImpedanceDipsAtSeriesResonance(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	fp := parallelResonance(tr)
	zs := cmplx.Abs(tr.Impedance(fs))
	zp := cmplx.Abs(tr.Impedance(fp))
	zoff := cmplx.Abs(tr.Impedance(fs * 0.7))
	if zs >= zoff {
		t.Errorf("|Z| at fs (%v) should be below off-resonance (%v)", zs, zoff)
	}
	if zp <= zoff {
		t.Errorf("|Z| at fp (%v) should peak above off-resonance (%v)", zp, zoff)
	}
	if zp < 20*zs {
		t.Errorf("resonance contrast too small: |Z(fp)|/|Z(fs)| = %v", zp/zs)
	}
}

func TestImpedancePositiveRealProperty(t *testing.T) {
	// A passive circuit must have non-negative resistance at all
	// frequencies.
	tr := MustDefault()
	f := func(x float64) bool {
		fHz := 100 + math.Mod(math.Abs(x), 1e6)
		return real(tr.Impedance(fHz)) >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResponsePeaksAtResonance(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	if g := cmplx.Abs(tr.Response(fs)); math.Abs(g-1) > 1e-9 {
		t.Errorf("|H(fs)| = %v, want 1", g)
	}
	// -3 dB at approximately fs ± fs/(2Q).
	bw := tr.SeriesResonance() / tr.Qm() // -3 dB bandwidth of the motional branch
	gEdge := cmplx.Abs(tr.Response(fs + bw/2))
	if math.Abs(gEdge-1/math.Sqrt2) > 0.05 {
		t.Errorf("|H(fs+bw/2)| = %v, want ~0.707", gEdge)
	}
	// Far off resonance the response collapses.
	if g := cmplx.Abs(tr.Response(fs * 3)); g > 0.1 {
		t.Errorf("|H(3fs)| = %v, want < 0.1", g)
	}
}

func TestReflectionCoefficientStates(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	// Conjugate match absorbs: Γ = 0.
	if g := cmplx.Abs(tr.ReflectionCoefficient(fs, tr.MatchedLoad(fs))); g > 1e-9 {
		t.Errorf("matched |Γ| = %v, want 0", g)
	}
	// Short and open reflect strongly.
	gs := cmplx.Abs(tr.ReflectionCoefficient(fs, ShortLoad))
	go_ := cmplx.Abs(tr.ReflectionCoefficient(fs, openLoad))
	if gs < 0.8 || go_ < 0.8 {
		t.Errorf("short/open |Γ| = %v/%v, want near 1", gs, go_)
	}
}

func TestReflectionPassivityProperty(t *testing.T) {
	// For any passive load (Re z ≥ 0), |Γ| ≤ 1: the scatterer cannot
	// radiate more than it intercepts.
	tr := MustDefault()
	f := func(re, im, df float64) bool {
		r := math.Mod(math.Abs(re), 1e6)
		x := math.Mod(im, 1e6)
		fHz := tr.SeriesResonance() * (0.5 + math.Mod(math.Abs(df), 1.0))
		g := tr.ReflectionCoefficient(fHz, complex(r, x))
		return cmplx.Abs(g) <= 1+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModulationDepth(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	// Short vs matched: |ΔΓ|/2 ≈ 1/2.
	d := tr.ModulationDepth(fs, ShortLoad, tr.MatchedLoad(fs))
	if d < 0.4 || d > 0.55 {
		t.Errorf("short/matched depth = %v, want ~0.5", d)
	}
	// Short vs open: the two Γ are nearly antipodal → depth near 1.
	d2 := tr.ModulationDepth(fs, ShortLoad, openLoad)
	if d2 < 0.85 {
		t.Errorf("short/open depth = %v, want near 1", d2)
	}
	// Same load: zero depth.
	if d3 := tr.ModulationDepth(fs, ShortLoad, ShortLoad); d3 != 0 {
		t.Errorf("same-load depth = %v", d3)
	}
}

func TestModulationDepthRollsOffResonance(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	dRes := tr.ModulationDepth(fs, ShortLoad, openLoad)
	dOff := tr.ModulationDepth(fs*1.2, ShortLoad, openLoad)
	// Off resonance the impedance is dominated by C0, so short/open Γ
	// contrast persists electrically, but the acoustic response doesn't;
	// the full chain (depth × |response|²) must roll off.
	resOn := cmplx.Abs(tr.Response(fs))
	resOff := cmplx.Abs(tr.Response(fs * 1.2))
	chainOn := dRes * resOn * resOn
	chainOff := dOff * resOff * resOff
	if chainOff > chainOn/2 {
		t.Errorf("backscatter chain should roll off: on=%v off=%v", chainOn, chainOff)
	}
}

func TestDesignLSectionMatchesAtDesignFrequency(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	z := tr.Impedance(fs)
	for _, r0 := range []float64{25, 50, 200, 1000} {
		m, err := DesignLSection(z, r0, fs)
		if err != nil {
			t.Fatalf("r0=%v: %v", r0, err)
		}
		if q := m.MatchQuality(fs, z); q > 1e-6 {
			t.Errorf("r0=%v: |Γ| at design = %v, want ~0", r0, q)
		}
	}
}

func TestDesignLSectionDetunesOffFrequency(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	z := tr.Impedance(fs)
	m, err := DesignLSection(z, 50, fs)
	if err != nil {
		t.Fatal(err)
	}
	on := m.MatchQuality(fs, z)
	off := m.MatchQuality(fs*1.15, tr.Impedance(fs*1.15))
	if off <= on {
		t.Errorf("match should degrade off design frequency: on=%v off=%v", on, off)
	}
}

func TestDesignLSectionErrors(t *testing.T) {
	if _, err := DesignLSection(complex(0, 50), 50, 1e4); err == nil {
		t.Error("purely reactive load should be rejected")
	}
	if _, err := DesignLSection(complex(50, 0), -1, 1e4); err == nil {
		t.Error("negative target should be rejected")
	}
	if _, err := DesignLSection(complex(50, 0), 50, 0); err == nil {
		t.Error("zero frequency should be rejected")
	}
}

func TestDesignLSectionEqualResistance(t *testing.T) {
	// R_L == r0 with reactance: single series element cancels it.
	z := complex(50, 30)
	m, err := DesignLSection(z, 50, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if q := m.MatchQuality(1e4, z); q > 1e-9 {
		t.Errorf("|Γ| = %v, want 0", q)
	}
}

func TestDesignLSectionPropertyAllPassiveLoads(t *testing.T) {
	// Any load with positive resistance must be matchable, and the match
	// must be essentially perfect at the design frequency.
	f := func(re, im float64) bool {
		r := 1 + math.Mod(math.Abs(re), 5000)
		x := math.Mod(im, 5000)
		z := complex(r, x)
		m, err := DesignLSection(z, 50, 18.5e3)
		if err != nil {
			return false
		}
		return m.MatchQuality(18.5e3, z) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBandwidthSanity(t *testing.T) {
	tr := MustDefault()
	bw := tr.SeriesResonance() / tr.Qm() // -3 dB bandwidth of the motional branch
	// 18.5 kHz / Q≈28 → ~660 Hz: the subcarriers (hundreds of Hz) fit.
	if bw < 300 || bw > 1500 {
		t.Errorf("bandwidth %v Hz outside plausible range", bw)
	}
}

func TestModulationDepthSymmetryProperty(t *testing.T) {
	// |Γ(z1) − Γ(z2)| is symmetric in the two states, and bounded by 1
	// for passive loads (each |Γ| ≤ 1 ⇒ depth = |ΔΓ|/2 ≤ 1).
	tr := MustDefault()
	f := func(r1, x1, r2, x2, df float64) bool {
		z1 := complex(math.Abs(math.Mod(r1, 1e5)), math.Mod(x1, 1e5))
		z2 := complex(math.Abs(math.Mod(r2, 1e5)), math.Mod(x2, 1e5))
		fHz := tr.SeriesResonance() * (0.7 + math.Mod(math.Abs(df), 0.6))
		a := tr.ModulationDepth(fHz, z1, z2)
		b := tr.ModulationDepth(fHz, z2, z1)
		return math.Abs(a-b) < 1e-12 && a >= 0 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatchQualityBoundsProperty(t *testing.T) {
	tr := MustDefault()
	fs := tr.SeriesResonance()
	m, err := DesignLSection(tr.Impedance(fs), 50, fs)
	if err != nil {
		t.Fatal(err)
	}
	f := func(df float64) bool {
		fHz := fs * (0.5 + math.Mod(math.Abs(df), 1.0))
		q := m.MatchQuality(fHz, tr.Impedance(fHz))
		return q >= 0 && q <= 1+1e-9 && !math.IsNaN(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// parallelResonance returns the anti-resonance frequency in Hz, where the
// impedance magnitude peaks: f_p = f_s·√(1 + C1/C0).
func parallelResonance(t *Transducer) float64 {
	return t.SeriesResonance() * math.Sqrt(1+t.C1/t.C0)
}

// measuredK2 returns the effective electromechanical coupling coefficient
// k_eff² = C1/(C0+C1), the fraction of stored energy exchanged between the
// electrical and mechanical domains.
func measuredK2(t *Transducer) float64 {
	return t.C1 / (t.C0 + t.C1)
}
