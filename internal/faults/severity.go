package faults

import "math"

// Severity-mapping constants: the full-intensity canonical value of each
// fault class (the preset constructors' intensity-1 parameters). A plan
// whose components sit at these values maps to severity 1 for that class.
// They are deliberately the same numbers scenario.go's presets use, so
// Plan(r) of a preset scenario at intensity i maps back to a severity ≈ i
// — the round trip the severity tests pin.
const (
	severityShadowFullDB    = 6.0  // "shadowing" preset peak one-way dB
	severityDeadFracFull    = 0.5  // "elements" preset dead fraction
	severityClockFullPPM    = 1250 // "clockstep" preset oscillator step
	severityBurstsFullCount = 6.0  // "shrimp" preset mean bursts/round
)

// Per-class weights of the composite severity. They sum to 1 so the
// all-classes-at-canonical-full plan maps to severity 1 (the calibration
// table's intensity axis is calibrated against exactly that composite —
// the "chaos" scenario). Brownout is weighted highest: a collapsed supply
// rail kills the round outright, where the analog impairments only erode
// SNR.
const (
	severityWShadow   = 0.20
	severityWElements = 0.20
	severityWClock    = 0.20
	severityWBursts   = 0.15
	severityWBrownout = 0.25
)

// ModelSeverity maps one round's injection plan onto the scalar
// fault-intensity axis of the link-abstraction tier's calibration table
// (internal/linksim): each fault class contributes its fraction of the
// canonical full-intensity impairment, weighted and clamped to [0, 1].
//
// The mapping is deliberately lossy — a statistical link model cannot
// replay an individual shrimp burst — but it is *calibrated*: the table's
// intensity axis is measured against the waveform tier running the same
// composite scenario, so a plan that maps to severity s selects link
// statistics measured under impairment of that magnitude. Hero-link
// cross-checks (linksim's divergence telemetry) police the residual error
// online.
func ModelSeverity(p RoundPlan) float64 {
	if p.Empty() {
		return 0
	}
	frac := func(v, full float64) float64 {
		if full <= 0 {
			return 0
		}
		f := v / full
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	s := severityWShadow*frac(p.ShadowDB, severityShadowFullDB) +
		severityWElements*frac(p.DeadFrac, severityDeadFracFull) +
		severityWClock*frac(math.Abs(p.ClockPPMDelta), severityClockFullPPM) +
		severityWBursts*frac(float64(len(p.Bursts)), severityBurstsFullCount)
	if p.Brownout {
		s += severityWBrownout
	}
	if s > 1 {
		s = 1
	}
	return s
}
