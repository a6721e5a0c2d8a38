package ocean

import (
	"fmt"
	"math"
)

// The shallow coastal waters the paper operates in are well served by an
// iso-velocity image model. Extending backscatter toward deeper deployments
// (the natural follow-on) brings depth-dependent sound speed and ray
// bending into play; this file provides the canonical profile models and a
// range-stepping ray tracer for that regime.

// Profile gives sound speed as a function of depth (m, positive down).
type Profile interface {
	// SpeedAt returns the sound speed in m/s at depth z.
	SpeedAt(z float64) float64
	// Gradient returns dc/dz in 1/s at depth z.
	Gradient(z float64) float64
}

// MunkProfile is the canonical deep-ocean sound channel:
//
//	c(z) = c1·(1 + ε·(η − 1 + e^(−η))),  η = 2(z − z1)/B
//
// with a minimum (the SOFAR axis) at depth z1, in Munk's standard
// parameterization. Rays launched near the axis are trapped and oscillate
// around it.
type MunkProfile struct{}

// Munk's standard parameterization.
const (
	MunkAxisDepth float64 = 1300    // z1, m
	MunkAxisSpeed float64 = 1500    // c1, m/s
	munkScale     float64 = 1300    // B, m
	munkEpsilon   float64 = 0.00737 // ε
)

// CanonicalMunk returns Munk's sound channel.
func CanonicalMunk() *MunkProfile { return &MunkProfile{} }

// SpeedAt implements Profile.
func (m *MunkProfile) SpeedAt(z float64) float64 {
	eta := 2 * (z - MunkAxisDepth) / munkScale
	return MunkAxisSpeed * (1 + munkEpsilon*(eta-1+math.Exp(-eta)))
}

// Gradient implements Profile. The constant factor c1·ε·2/B folds to the
// same float64 the field-by-field product gave.
func (m *MunkProfile) Gradient(z float64) float64 {
	eta := 2 * (z - MunkAxisDepth) / munkScale
	return MunkAxisSpeed * munkEpsilon * (2 / munkScale) * (1 - math.Exp(-eta))
}

// RayPoint is one sample of a traced ray path.
type RayPoint struct {
	Range float64 // m
	Depth float64 // m
	Theta float64 // grazing angle, rad (positive = heading down)
}

// TraceRay integrates the ray equations through a profile from depth z0 at
// launch grazing angle theta0 (radians; positive = downward), out to
// rangeMax with range step dr. Snell's invariant cosθ/c is conserved;
// turning points (where cosθ·c(z) would exceed 1... i.e. the ray flattens)
// reflect the vertical direction, as do the surface (z = 0) and the bottom
// (z = depthMax, pass +Inf for none).
//
// The integrator is a midpoint (RK2) scheme in range — ample for the
// smooth profiles above; it is a visualization/physics tool, not a
// propagation-loss engine.
func TraceRay(p Profile, z0, theta0, rangeMax, dr, depthMax float64) ([]RayPoint, error) {
	if dr <= 0 || rangeMax <= 0 {
		return nil, fmt.Errorf("ocean: ray needs positive dr and rangeMax")
	}
	if z0 < 0 || (depthMax > 0 && z0 > depthMax) {
		return nil, fmt.Errorf("ocean: launch depth %.1f outside water column", z0)
	}
	if math.Abs(theta0) >= math.Pi/2 {
		return nil, fmt.Errorf("ocean: launch angle %.3f rad too steep for range stepping", theta0)
	}
	// Integrate the range-stepped ray equations directly:
	//
	//	dz/dr = tanθ,   dθ/dr = −c'(z)/c(z)
	//
	// θ passes smoothly through refraction turning points (θ = 0), so no
	// special-casing is needed there; only the physical boundaries reflect.
	n := int(rangeMax/dr) + 1
	path := make([]RayPoint, 0, n)
	z, th := z0, theta0
	clampZ := func(zz float64) float64 {
		if zz < 0 {
			zz = 0
		}
		if depthMax > 0 && zz > depthMax {
			zz = depthMax
		}
		return zz
	}
	for i := 0; i < n; i++ {
		path = append(path, RayPoint{Range: float64(i) * dr, Depth: z, Theta: th})

		// Midpoint (RK2) step.
		k1z := math.Tan(th)
		k1t := -p.Gradient(z) / p.SpeedAt(z)
		zm := clampZ(z + k1z*dr/2)
		tm := th + k1t*dr/2
		z += math.Tan(tm) * dr
		th += -p.Gradient(zm) / p.SpeedAt(zm) * dr

		// Boundary reflections.
		if z < 0 {
			z = -z
			th = -th
		}
		if depthMax > 0 && z > depthMax {
			z = 2*depthMax - z
			th = -th
		}
		// Keep the range-stepping assumption honest: the smooth profiles
		// here never steepen a shallow launch beyond ~60°.
		if math.Abs(th) > math.Pi/3 {
			return path, fmt.Errorf("ocean: ray steepened to %.2f rad at r=%.0f; use a smaller launch angle", th, float64(i)*dr)
		}
	}
	return path, nil
}

// TurningDepths returns the shallow and deep turning depths of a ray
// launched at z0/theta0 in the profile, found by scanning for where
// cosθ(z) = 1 (ξ·c(z) = 1). Returns NaN for a side with no turning point
// inside [0, zMax].
func TurningDepths(p Profile, z0, theta0, zMax float64) (shallow, deep float64) {
	xi := math.Cos(theta0) / p.SpeedAt(z0)
	shallow, deep = math.NaN(), math.NaN()
	const steps = 4000
	// Scan upward from launch.
	prev := xi*p.SpeedAt(z0) - 1
	for i := 1; i <= steps; i++ {
		z := z0 - z0*float64(i)/steps
		v := xi*p.SpeedAt(z) - 1
		if prev < 0 && v >= 0 {
			shallow = z
			break
		}
		prev = v
	}
	prev = xi*p.SpeedAt(z0) - 1
	for i := 1; i <= steps; i++ {
		z := z0 + (zMax-z0)*float64(i)/steps
		v := xi*p.SpeedAt(z) - 1
		if prev < 0 && v >= 0 {
			deep = z
			break
		}
		prev = v
	}
	return shallow, deep
}
