package core

import "vab/internal/reader"

// Calibration constants. These are the only free parameters of the
// reproduction; everything else (curve shapes, crossovers, orientation
// behaviour, environment deltas) follows from the physical models. They are
// fixed once against the two anchors quoted in the paper's abstract —
// BER ≤ 10⁻³ at 300 m round trip for VAB in the river campaign, and a 15×
// range advantage over the prior single-element state of the art at equal
// throughput and power — and never tuned per experiment. The calibration
// test in budget_test.go locks the anchors.

const (
	// DefaultCarrierHz is the operating frequency: the resonance of the
	// potted cylindrical transducers.
	DefaultCarrierHz = 18.5e3

	// DefaultSourceLevelDB re 1 µPa @ 1 m: the reader's projector.
	DefaultSourceLevelDB = reader.SourceLevelDB

	// StructuralLossDB is the acoustic re-radiation deficit of a
	// wavelength-scale piezo scatterer relative to an ideal point
	// reflector: the target strength of centimeter-scale transducers at
	// λ ≈ 8 cm. It applies identically to VAB and the baseline (both use
	// the same transducers), so it shifts every range curve without
	// changing any comparison.
	StructuralLossDB = 37.5

	// DiversityGainDB is the average detection gain of combining tone
	// energy across resolvable multipath arrivals in shallow water,
	// measured from the waveform simulator (see the diversity ablation
	// bench). Applied when the receiver runs with combining enabled.
	DiversityGainDB = 2.5

	// CarrierBandSIPenaltyDB is the residual self-interference noise-floor
	// elevation suffered by designs that signal in the carrier band
	// (on-off keying directly on the carrier, as prior systems did)
	// instead of on frequency-shifted subcarriers. After cancellation, the
	// projector's phase noise and the fluctuating direct path still raise
	// the floor near the carrier; subcarrier FSK sidesteps it entirely.
	CarrierBandSIPenaltyDB = 12.0

	// DefaultNodeElements is the reference VAB array size used by the
	// headline experiments.
	DefaultNodeElements = 16

	// DefaultDiversityBranches is the number of resolvable shallow-water
	// arrivals the reader's combiner exploits. Image-method geometry in
	// both campaign environments puts 3-5 arrivals within 10 dB of the
	// direct path.
	DefaultDiversityBranches = 4
)
