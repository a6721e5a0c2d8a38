package ocean

import (
	"math"
	"math/rand"
)

// DopplerSpread returns the two-sided Doppler spread in Hz a carrier at fHz
// experiences from surface motion and platform drift at relative speed
// vRel m/s:
//
//	B_d = f·(v_surface + v_rel)/c
//
// Surface-bounce paths are smeared by the vertical wave velocity; even the
// direct path sees drift-induced shift. For the paper's moored deployments
// the platform term is small and the spread is dominated by sea state.
func (e *Environment) DopplerSpread(fHz, vRel float64) float64 {
	c := e.MeanSoundSpeed()
	return fHz * (e.SurfaceSpeed + math.Abs(vRel)) / c
}

// CoherenceTime returns the approximate channel coherence time in seconds,
// using the usual T_c ≈ 0.423/B_d rule. Infinite for a static channel.
func (e *Environment) CoherenceTime(fHz, vRel float64) float64 {
	bd := e.DopplerSpread(fHz, vRel)
	if bd <= 0 {
		return math.Inf(1)
	}
	return 0.423 / bd
}

// FadingProcess generates a slowly varying random complex gain sequence with
// the given Doppler spread, modeling the channel's time variation across a
// packet. It is a first-order Gauss–Markov (AR(1)) process around 1+0j whose
// correlation time matches the coherence time; depth controls the relative
// fading intensity (0 = static, 1 = full Rayleigh-like variation).
type FadingProcess struct {
	rho   float64 // per-sample correlation
	sigma float64 // innovation std dev
	state complex128
	rng   *rand.Rand
}

// NewFadingProcess builds a fading process for sample rate fsHz. spreadHz is
// the Doppler spread (0 disables variation) and depth in [0,1] scales the
// fade magnitude.
func NewFadingProcess(spreadHz, fsHz, depth float64, rng *rand.Rand) *FadingProcess {
	fp := &FadingProcess{rng: rng, state: 0}
	if spreadHz <= 0 || depth <= 0 {
		fp.rho = 1
		fp.sigma = 0
		return fp
	}
	// AR(1) with correlation exp(-Δt/Tc).
	tc := 0.423 / spreadHz
	fp.rho = math.Exp(-1 / (tc * fsHz))
	// Stationary variance = depth²/2 per quadrature.
	fp.sigma = depth * math.Sqrt(1-fp.rho*fp.rho) / math.Sqrt2
	return fp
}

// Reset returns the process to its initial (unfaded) state, exactly as
// NewFadingProcess leaves it. An incrementally rebuilt link calls this
// instead of reconstructing the process: the AR(1) coefficients depend only
// on the Doppler spread and sample rate, which geometry sway cannot change,
// so resetting the state is equivalent to — and allocation-free compared
// with — building a fresh process on the same RNG.
func (fp *FadingProcess) Reset() { fp.state = 0 }

// Apply multiplies x in place by the evolving channel gain and returns x.
// Each sample advances the AR(1) state by one step, drawing the in-phase
// then the quadrature innovation (seeded outputs depend on that order),
// and is multiplied by 1 + state. A static process multiplies every
// sample by exactly 1.
func (fp *FadingProcess) Apply(x []complex128) []complex128 {
	if fp.sigma == 0 {
		for i := range x {
			x[i] *= 1
		}
		return x
	}
	rho, sigma, st := fp.rho, fp.sigma, fp.state
	for i := range x {
		n1 := fp.rng.NormFloat64()
		n2 := fp.rng.NormFloat64()
		st = complex(rho, 0)*st + complex(n1*sigma, n2*sigma)
		x[i] *= 1 + st
	}
	fp.state = st
	return x
}
