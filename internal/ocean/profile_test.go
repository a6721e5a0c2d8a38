package ocean

import (
	"math"
	"testing"
)

// isoVelocity is a constant-speed profile.
type isoVelocity float64

func (c isoVelocity) SpeedAt(float64) float64  { return float64(c) }
func (c isoVelocity) Gradient(float64) float64 { return 0 }

// linearProfile has constant gradient G from surface speed SurfaceSpeed:
// the textbook upward/downward-refracting water column.
type linearProfile struct {
	SurfaceSpeed float64 // m/s at z = 0
	G            float64 // dc/dz in 1/s (positive: faster with depth)
}

func (l *linearProfile) SpeedAt(z float64) float64 { return l.SurfaceSpeed + l.G*z }
func (l *linearProfile) Gradient(float64) float64  { return l.G }

func TestMunkProfileShape(t *testing.T) {
	m := CanonicalMunk()
	// Minimum at the axis.
	cAxis := m.SpeedAt(MunkAxisDepth)
	if math.Abs(cAxis-MunkAxisSpeed) > 1e-9 {
		t.Errorf("axis speed %v, want %v", cAxis, MunkAxisSpeed)
	}
	for _, dz := range []float64{-800, -300, 300, 800, 2000} {
		if m.SpeedAt(MunkAxisDepth+dz) <= cAxis {
			t.Errorf("speed at axis%+.0f should exceed the axis minimum", dz)
		}
	}
	// Canonical values: surface ≈ 1548.5 m/s, 5000 m ≈ 1551 m/s.
	if c0 := m.SpeedAt(0); math.Abs(c0-1548.5) > 1 {
		t.Errorf("surface speed %v, want ~1548.5", c0)
	}
	if c5 := m.SpeedAt(5000); math.Abs(c5-1551) > 4 {
		t.Errorf("5 km speed %v, want ~1551", c5)
	}
	// Gradient zero at the axis, negative above, positive below.
	if g := m.Gradient(MunkAxisDepth); math.Abs(g) > 1e-12 {
		t.Errorf("axis gradient %v", g)
	}
	if m.Gradient(500) >= 0 {
		t.Error("above-axis gradient should be negative")
	}
	if m.Gradient(3000) <= 0 {
		t.Error("below-axis gradient should be positive")
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	m := CanonicalMunk()
	for _, z := range []float64{100, 800, 1300, 2500, 4000} {
		h := 0.5
		fd := (m.SpeedAt(z+h) - m.SpeedAt(z-h)) / (2 * h)
		if math.Abs(fd-m.Gradient(z)) > 1e-6 {
			t.Errorf("z=%v: gradient %v vs finite difference %v", z, m.Gradient(z), fd)
		}
	}
}

func TestTraceRayStraightInIsoVelocity(t *testing.T) {
	path, err := TraceRay(isoVelocity(1500), 100, 0.1, 5000, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Constant slope tan(0.1).
	slope := math.Tan(0.1)
	for _, pt := range path {
		want := 100 + slope*pt.Range
		if math.Abs(pt.Depth-want) > 1 {
			t.Fatalf("r=%v: depth %v, want %v (straight line)", pt.Range, pt.Depth, want)
		}
	}
}

func TestTraceRaySOFARTrapping(t *testing.T) {
	// A ray launched on the axis at a shallow angle must oscillate around
	// the axis without touching surface or bottom.
	m := CanonicalMunk()
	path, err := TraceRay(m, MunkAxisDepth, 0.08, 100e3, 50, 5000)
	if err != nil {
		t.Fatal(err)
	}
	minZ, maxZ := math.Inf(1), math.Inf(-1)
	crossings := 0
	prevAbove := false
	for i, pt := range path {
		if pt.Depth < minZ {
			minZ = pt.Depth
		}
		if pt.Depth > maxZ {
			maxZ = pt.Depth
		}
		above := pt.Depth < MunkAxisDepth
		if i > 0 && above != prevAbove {
			crossings++
		}
		prevAbove = above
	}
	if minZ < 100 || maxZ > 4500 {
		t.Errorf("trapped ray escaped the channel: depths [%v, %v]", minZ, maxZ)
	}
	if crossings < 4 {
		t.Errorf("ray crossed the axis only %d times over 100 km; not oscillating", crossings)
	}
	// Turning depths must bracket the axis, symmetric-ish in speed.
	sh, dp := TurningDepths(m, MunkAxisDepth, 0.08, 5000)
	if math.IsNaN(sh) || math.IsNaN(dp) {
		t.Fatalf("missing turning depths: %v %v", sh, dp)
	}
	if !(sh < MunkAxisDepth && dp > MunkAxisDepth) {
		t.Errorf("turning depths [%v, %v] don't bracket the axis", sh, dp)
	}
	// At a turning depth the local speed satisfies Snell: c(z_t) = c_axis/cos(θ0).
	want := MunkAxisSpeed / math.Cos(0.08)
	if got := m.SpeedAt(dp); math.Abs(got-want) > 0.5 {
		t.Errorf("deep turning speed %v, want %v", got, want)
	}
	// The ray's observed excursion should match the turning depths within
	// the step resolution.
	if math.Abs(minZ-sh) > 100 || math.Abs(maxZ-dp) > 100 {
		t.Errorf("excursion [%v, %v] vs turning depths [%v, %v]", minZ, maxZ, sh, dp)
	}
}

func TestTraceRayUpwardRefraction(t *testing.T) {
	// Speed increasing with depth bends rays upward (classic surface
	// duct): a horizontally launched ray must rise and repeatedly bounce
	// off the surface.
	p := &linearProfile{SurfaceSpeed: 1480, G: 0.05}
	path, err := TraceRay(p, 50, 0.001, 30e3, 20, 200)
	if err != nil {
		t.Fatal(err)
	}
	surfaceTouches := 0
	for _, pt := range path {
		if pt.Depth < 1 {
			surfaceTouches++
		}
		if pt.Depth > 199 {
			t.Fatalf("upward-refracted ray hit the bottom at r=%v", pt.Range)
		}
	}
	if surfaceTouches == 0 {
		t.Error("ray never reached the surface in an upward-refracting duct")
	}
}

func TestTraceRayValidation(t *testing.T) {
	if _, err := TraceRay(isoVelocity(1500), 10, 0.1, -1, 10, 0); err == nil {
		t.Error("negative range accepted")
	}
	if _, err := TraceRay(isoVelocity(1500), 10, 0.1, 100, 0, 0); err == nil {
		t.Error("zero dr accepted")
	}
	if _, err := TraceRay(isoVelocity(1500), -5, 0.1, 100, 10, 0); err == nil {
		t.Error("negative launch depth accepted")
	}
	if _, err := TraceRay(isoVelocity(1500), 10, 1.6, 100, 10, 0); err == nil {
		t.Error("vertical launch accepted")
	}
}

func TestBoundaryReflectionsConserveInvariant(t *testing.T) {
	// In a bounded iso-velocity channel the grazing magnitude is conserved
	// across surface/bottom bounces.
	path, err := TraceRay(isoVelocity(1500), 10, 0.15, 20e3, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range path {
		if math.Abs(math.Abs(pt.Theta)-0.15) > 0.01 {
			t.Fatalf("grazing magnitude drifted to %v at r=%v", pt.Theta, pt.Range)
		}
	}
}
