// Package linksim is the link-abstraction fidelity tier: a statistical
// per-link model of the Van Atta backscatter channel, calibrated against
// the waveform tier, and the mac.Scheduler backend that runs 10⁵–10⁶
// abstract nodes per polling cycle on it.
//
// The waveform tier (core.System/core.Fleet) is physics-exact but costs
// milliseconds per node per round — city-scale deployments are out of
// reach by brute force. This package replaces the per-round DSP with
// table-driven draws: each poll of a link samples delivery and SNR from
// distributions measured off the waveform tier over a grid of
// (environment, fault intensity, orientation, range) cells. The
// calibration table is a serializable, versioned artifact (see
// Table): committed under testdata/, embedded in the binary, and
// regenerable with `vabsim -calibrate` — per "On the
// Reusability of Post-Experimental Field Data", campaign statistics are
// reusable data, not throwaway sweep output.
//
// Three properties tie the abstraction to the ground truth:
//
//   - Calibration. Every cell is measured by running the real waveform
//     pipeline (core.System.RunRound) with the real fault engine; the
//     delivery-probability axis is made monotone along range by isotonic
//     regression, and a logistic SNR→delivery transfer is fitted across
//     cells so chip-rate changes and severity shifts translate into
//     principled probability adjustments.
//   - Shared MAC semantics. The tier does not reimplement the polling
//     protocol: Fleet is a mac.Backend, as the waveform core.Fleet is, so
//     one mac.Scheduler cycle — schedule, retries, the NodeColumns fold,
//     the mac.RateController feed — runs both, and probation and rate
//     stepdown behave identically by construction.
//   - Hero links. Every cycle a configurable subset of links is promoted
//     to full waveform fidelity and cross-checked against the model
//     online; divergence counters and an SNR z-score histogram are
//     exported through internal/telemetry, so drift between the tiers is
//     a monitored quantity, not an assumption.
//
// Determinism contract: every draw is a pure function of (fleet seed,
// node index, cycle, attempt) via faults.SplitMix64 — cycle outcomes are
// bit-identical at any SetWorkers width, matching the repo-wide seeded
// reproducibility contract.
package linksim
