// Package faults is the deterministic fault-injection engine for the VAB
// stack: it turns a Scenario — a list of typed faults, each active for the
// whole run — into per-round injection plans that the waveform-level
// system applies to its channel, array, node and PHY models.
//
// The paper's headline claim (>1,500 field trials across river and ocean)
// was earned against a hostile medium: snapping-shrimp impulse trains,
// bubble-cloud shadowing, element failures and node brownouts, none of
// which a clean-channel simulation exercises. This package reproduces that
// hostility on demand, and reproducibly: every draw is a pure function of
// (scenario seed, fault index, round index), so the plan for round r is
// identical no matter how many times it is computed, in what order, or on
// how many goroutines. Two runs with the same scenario seed are
// byte-identical; a run with no scenario attached is byte-identical to a
// run before this package existed, because an absent engine touches no RNG
// stream anywhere in the stack.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Type enumerates the fault classes the engine injects.
type Type int

// Fault classes, in the order the engine applies them within a round.
const (
	// Impulse layers snapping-shrimp-style noise bursts on the reader's
	// capture (Poisson arrivals within the round, high power, short).
	Impulse Type = iota
	// Shadowing applies time-varying excess attenuation to the link
	// budget: a bubble cloud or vessel wake drifting through the path.
	Shadowing
	// ElementFailure kills Van Atta elements (flooded transducer, broken
	// interconnect), degrading the retrodirective conversion gain.
	ElementFailure
	// Brownout collapses the node's supply rail for the round: the
	// harvester reservoir is forcibly depleted mid-burst.
	Brownout
	// ClockStep steps the node oscillator's frequency error while active:
	// a temperature transient walking an RC oscillator off nominal.
	ClockStep

	numTypes
)

// String names the fault type.
func (t Type) String() string {
	switch t {
	case Impulse:
		return "impulse"
	case Shadowing:
		return "shadowing"
	case ElementFailure:
		return "element"
	case Brownout:
		return "brownout"
	case ClockStep:
		return "clockstep"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Fault is one impairment, active from round 0 to the end of the run.
// Intensity in [0, 1] scales the type-specific severity fields, which
// carry canonical full-intensity values (see the preset constructors in
// scenario.go).
type Fault struct {
	Type      Type
	Intensity float64

	// Impulse parameters.
	RatePerRound float64 // mean Poisson bursts per round at Intensity 1
	PowerDB      float64 // burst power above the ambient floor, dB
	BurstLenSec  float64 // single burst duration, s

	// Shadowing parameters.
	AttenDB      float64 // peak one-way excess attenuation at Intensity 1, dB
	PeriodRounds int     // mean rounds between cloud passages

	// ElementFailure parameters.
	DeadFrac float64 // fraction of array elements dead at Intensity 1

	// Brownout parameters.
	OutageProb float64 // per-round probability of a supply collapse

	// ClockStep parameters.
	StepPPM float64 // oscillator error added while active, ppm
}

// Validate reports structurally impossible faults.
func (f *Fault) Validate() error {
	if f.Type < 0 || f.Type >= numTypes {
		return fmt.Errorf("faults: unknown fault type %d", int(f.Type))
	}
	if f.Intensity < 0 || f.Intensity > 1 {
		return fmt.Errorf("faults: intensity %.3g outside [0, 1]", f.Intensity)
	}
	if f.DeadFrac < 0 || f.DeadFrac > 1 {
		return fmt.Errorf("faults: dead fraction %.3g outside [0, 1]", f.DeadFrac)
	}
	if f.OutageProb < 0 || f.OutageProb > 1 {
		return fmt.Errorf("faults: outage probability %.3g outside [0, 1]", f.OutageProb)
	}
	return nil
}

// Scenario is a named, seeded fault schedule. The zero value (no faults)
// is valid and injects nothing.
type Scenario struct {
	Name   string
	Seed   int64
	Faults []Fault
}

// Validate checks every fault in the schedule.
func (sc *Scenario) Validate() error {
	for i := range sc.Faults {
		if err := sc.Faults[i].Validate(); err != nil {
			return fmt.Errorf("faults: scenario %q fault %d: %w", sc.Name, i, err)
		}
	}
	return nil
}

// Burst is one impulsive-noise event within a round's capture window.
type Burst struct {
	StartFrac float64 // burst start as a fraction of the capture length [0, 1)
	LenSec    float64 // burst duration, s
	PowerDB   float64 // power above the ambient floor, dB
}

// RoundPlan is everything the engine wants injected into one round. The
// zero value injects nothing.
type RoundPlan struct {
	Round int

	Bursts []Burst // impulsive noise on the capture

	// ShadowDB is the one-way excess attenuation this round (applied twice
	// on the round trip).
	ShadowDB float64

	// DeadFrac is the fraction of array elements currently dead; FailSeed
	// picks which ones, deterministically.
	DeadFrac float64
	FailSeed int64

	// Brownout forces a supply collapse before the node hears the query.
	Brownout bool

	// ClockPPMDelta is added to the node oscillator's nominal error.
	ClockPPMDelta float64
}

// Empty reports whether the plan injects nothing.
func (p *RoundPlan) Empty() bool {
	return len(p.Bursts) == 0 && p.ShadowDB == 0 && p.DeadFrac == 0 &&
		!p.Brownout && p.ClockPPMDelta == 0
}

// Engine evaluates a Scenario round by round. It is stateless apart from
// the (optional) metrics handles: Plan is a pure function of the round
// index, so one engine may serve concurrent systems.
type Engine struct {
	sc  Scenario
	met engineMetrics
}

// NewEngine validates the scenario and builds an engine for it.
func NewEngine(sc Scenario) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &Engine{sc: sc}, nil
}

// SplitMix64 is the avalanche mixer behind every seeded draw in the stack:
// the engine's plans (seeded from scenario seed, fault index and round),
// netfaults' injection schedules and linksim's poll streams all chain it,
// so each draw is a pure function of its indices, independent of order
// and history.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawSeed derives the RNG seed for (fault index, round).
func (e *Engine) drawSeed(fault, round int) int64 {
	h := SplitMix64(uint64(e.sc.Seed))
	h = SplitMix64(h ^ uint64(fault)*0x9e3779b97f4a7c15)
	h = SplitMix64(h ^ uint64(round))
	return int64(h >> 1) // keep it non-negative for rand.NewSource
}

// drawRNGs recycles the RNGs Plan seeds for its draw streams: a
// rand.NewSource holds 4.9 KB of state, allocated afresh every round
// otherwise. Rand.Seed leaves a pooled RNG in exactly the state
// rand.New(rand.NewSource(seed)) starts in (the source state and the
// Rand's read position both reset). A sync.Pool because Plan runs
// concurrently.
var drawRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRNG returns a pooled RNG seeded with seed; hand it back with
// drawRNGs.Put once its draws are done.
func seededRNG(seed int64) *rand.Rand {
	rng := drawRNGs.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// poisson draws k ~ Poisson(lambda) by Knuth's product method; fine for the
// single-digit rates the impulse faults use.
func poisson(lambda float64, rng *rand.Rand) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Plan computes the injection plan for one round. Nil engines plan
// nothing, so an unfaulted system carries the hook for free.
func (e *Engine) Plan(round int) RoundPlan {
	plan := RoundPlan{Round: round}
	if e == nil {
		return plan
	}
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Intensity == 0 {
			continue
		}
		switch f.Type {
		case Impulse:
			rng := seededRNG(e.drawSeed(i, round))
			n := poisson(f.RatePerRound*f.Intensity, rng)
			for b := 0; b < n; b++ {
				plan.Bursts = append(plan.Bursts, Burst{
					StartFrac: rng.Float64(),
					LenSec:    f.BurstLenSec * (0.5 + rng.Float64()),
					PowerDB:   f.PowerDB + 6*(rng.Float64()-0.5),
				})
			}
			drawRNGs.Put(rng)
			if n > 0 {
				e.met.injections[Impulse].Add(int64(n))
			}
		case Shadowing:
			if db := e.shadowDB(i, f, round); db > 0 {
				if plan.ShadowDB < db {
					plan.ShadowDB = db
				}
				e.met.injections[Shadowing].Inc()
			}
		case ElementFailure:
			frac := f.DeadFrac * f.Intensity
			if frac > plan.DeadFrac {
				plan.DeadFrac = frac
				// Seed the element pick from round 0, not the round: the
				// same elements stay dead for the whole run, as real
				// flooded transducers do.
				plan.FailSeed = e.drawSeed(i, 0)
			}
			e.met.injections[ElementFailure].Inc()
		case Brownout:
			rng := seededRNG(e.drawSeed(i, round))
			collapsed := rng.Float64() < f.OutageProb*f.Intensity
			drawRNGs.Put(rng)
			if collapsed {
				plan.Brownout = true
				e.met.injections[Brownout].Inc()
			}
		case ClockStep:
			plan.ClockPPMDelta += f.StepPPM * f.Intensity
			e.met.injections[ClockStep].Inc()
		}
	}
	return plan
}

// shadowDB evaluates the bubble-cloud attenuation profile at round r: each
// period of PeriodRounds rounds independently hosts (or not) one cloud
// passage with a Gaussian-in-time profile. Contributions from the previous
// and next periods are summed so profiles straddle period boundaries
// smoothly; the result stays a pure function of (fault, round).
func (e *Engine) shadowDB(idx int, f *Fault, round int) float64 {
	period := f.PeriodRounds
	if period < 1 {
		period = 1
	}
	k := round / period
	var db float64
	for _, kk := range [3]int{k - 1, k, k + 1} {
		if kk < 0 {
			continue
		}
		// One draw stream per (fault, period): presence, center and width
		// of that period's cloud.
		rng := seededRNG(e.drawSeed(idx, -1000000-kk))
		if rng.Float64() > 0.35+0.45*f.Intensity {
			drawRNGs.Put(rng)
			continue // no cloud crossed the path this period
		}
		center := float64(kk*period) + rng.Float64()*float64(period)
		width := (0.1 + 0.2*rng.Float64()) * float64(period)
		peak := f.AttenDB * f.Intensity * (0.6 + 0.4*rng.Float64())
		drawRNGs.Put(rng)
		d := (float64(round) - center) / width
		db += peak * math.Exp(-0.5*d*d)
	}
	return db
}

// PickElements deterministically selects k distinct element indices out of
// n using the plan's fail seed: the helper the array-fault applier uses so
// the same elements die for the whole run.
func PickElements(n, k int, seed int64) []int {
	if k <= 0 || n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:k]...)
	return out
}
