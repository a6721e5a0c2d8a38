package core

import (
	"fmt"
	"math"

	"vab/internal/faults"
	"vab/internal/phy"
	"vab/internal/reader"
	"vab/internal/vanatta"
)

// FaultableDesign is implemented by node designs whose array can degrade
// element by element; the fault engine's element-failure class applies
// only to such designs.
type FaultableDesign interface {
	Design
	// FaultArray exposes the underlying array for element-fault injection.
	FaultArray() *vanatta.Array
}

// FaultArray implements FaultableDesign.
func (d *VanAttaDesign) FaultArray() *vanatta.Array { return d.Array }

// SetFaultEngine attaches a fault-injection engine: from the next round
// on, every RunRound asks the engine for that round's plan and applies it
// across the stack (channel bursts, link shadowing, array element faults,
// node brownouts, oscillator steps). A nil engine detaches injection and
// heals any element faults and clock steps still applied. Without an
// engine the round pipeline is bit-identical to a build without fault
// support: no plan is computed and no RNG stream is touched.
func (s *System) SetFaultEngine(e *faults.Engine) {
	s.chaos = e
	s.chaosRound = 0
	if e == nil {
		s.healFaults()
		return
	}
	e.Instrument(s.reg)
}

// SetFaultRound positions the system on its fault engine's scenario
// clock: the next RunRound evaluates Plan(r). Used when a system is built
// mid-campaign — a hero-link cross-check spinning up a waveform system at
// cycle c aligns it to the fleet's scenario with SetFaultRound(c) — so the
// same faults hit the same rounds as in a from-scratch run.
func (s *System) SetFaultRound(r int) { s.chaosRound = r }

// healFaults reverts the persistent fault state (element failures, clock
// steps, shadowing) to nominal.
func (s *System) healFaults() {
	if fd, ok := s.cfg.Design.(FaultableDesign); ok && s.appliedDeadFrac != 0 {
		fd.FaultArray().ClearFaults()
	}
	s.appliedDeadFrac = 0
	s.refreshNodeGain()
	s.shadowDB = 0
	if s.appliedClockDelta != 0 {
		s.appliedClockDelta = 0
		s.Node.SetClockPPM(0)
	}
}

// refreshNodeGain recomputes the cached scatter gain from the design's
// current state — called at construction and whenever element faults
// change the array.
func (s *System) refreshNodeGain() {
	field := s.cfg.Design.ScatterField(DefaultCarrierHz, s.cfg.Orientation)
	s.nodeGain = field * complex(math.Pow(10, -StructuralLossDB/20), 0)
}

// effectiveGain returns the round's scatter gain: the cached node gain,
// attenuated twice by any active shadowing (the bubble cloud sits in the
// propagation path, so the modulated return crosses it on the way out and
// on the way back).
func (s *System) effectiveGain() complex128 {
	if s.shadowDB <= 0 {
		return s.nodeGain
	}
	return s.nodeGain * complex(math.Pow(10, -2*s.shadowDB/20), 0)
}

// applyFaultPlan applies one round's injection plan to the stack. Element
// faults and clock steps are sticky (applied only when the plan's value
// changes); shadowing is per-round; brownouts fire immediately; impulse
// bursts are deferred until the capture exists (see RunRound).
func (s *System) applyFaultPlan(plan *faults.RoundPlan) error {
	s.shadowDB = plan.ShadowDB
	if plan.DeadFrac != s.appliedDeadFrac {
		fd, ok := s.cfg.Design.(FaultableDesign)
		if ok {
			arr := fd.FaultArray()
			arr.ClearFaults()
			n := arr.N()
			k := int(math.Round(plan.DeadFrac * float64(n)))
			for _, i := range faults.PickElements(n, k, plan.FailSeed) {
				arr.SetElementFault(i, true)
			}
			s.refreshNodeGain()
		}
		s.appliedDeadFrac = plan.DeadFrac
	}
	if plan.Brownout {
		s.Node.InjectBrownout()
	}
	if plan.ClockPPMDelta != s.appliedClockDelta {
		if err := s.Node.SetClockPPM(plan.ClockPPMDelta); err != nil {
			return fmt.Errorf("core: fault clock step: %w", err)
		}
		s.appliedClockDelta = plan.ClockPPMDelta
	}
	return nil
}

// injectBursts layers the plan's impulsive-noise events onto the capture.
// Offsets are drawn as fractions so the same plan scales to any capture
// length; InjectBurst clamps the windows against the slice bounds.
func (s *System) injectBursts(capture []complex128, plan *faults.RoundPlan) {
	fs := s.cfg.Reader.PHY.SampleRate
	for _, b := range plan.Bursts {
		start := int(b.StartFrac * float64(len(capture)))
		n := int(b.LenSec * fs)
		s.Link.InjectBurst(capture, start, n, b.PowerDB)
	}
}

// SetChipRate rebuilds the PHY chain (reader, node modulator, downlink
// demodulator) at a new chip rate, keeping the channel, geometry and node
// energy state: the actuation half of SNR-triggered rate stepdown. The
// rate must divide the sample rate per the phy numerology rules. The
// link is untouched — its taps depend on the sample rate only.
func (s *System) SetChipRate(rate float64) error {
	if rate == s.cfg.Reader.PHY.ChipRate {
		return nil
	}
	cfg := s.cfg
	cfg.Reader.PHY.ChipRate = rate
	r, err := reader.New(cfg.Reader)
	if err != nil {
		return fmt.Errorf("core: chip rate %.0f: %w", rate, err)
	}
	if err := s.Node.SetChipRate(rate); err != nil {
		return fmt.Errorf("core: chip rate %.0f: %w", rate, err)
	}
	ook, err := phy.NewOOKDemodulator(cfg.Reader.PHY)
	if err != nil {
		return fmt.Errorf("core: chip rate %.0f: %w", rate, err)
	}
	s.cfg = cfg
	s.Reader = r
	s.ook = ook
	if s.reg != nil {
		s.Reader.Instrument(s.reg)
	}
	return nil
}

// ChipRate returns the currently configured chip rate.
func (s *System) ChipRate() float64 { return s.cfg.Reader.PHY.ChipRate }
