// Package sim is the experiment harness: seeded Monte-Carlo trial runners
// over the analytic link-budget tier, sweep utilities, aggregate statistics
// with binomial confidence intervals, and text/CSV table rendering for the
// paper-style outputs.
//
// One "trial" models one transmitted frame: the channel draws a fading
// realization (Rician, with the K-factor the budget derives from multipath
// geometry), every chip in the frame then errors independently at the
// instantaneous noncoherent-FSK probability, and the chip errors are
// counted. This mirrors how the paper reports its field campaign: BER
// aggregated over many frames per location.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"vab/internal/core"
	"vab/internal/dsp"
	"vab/internal/phy"
	"vab/internal/telemetry"
)

// TrialConfig sets up a Monte-Carlo cell.
type TrialConfig struct {
	Budget        *core.LinkBudget
	RangeM        float64
	Trials        int // frames
	ChipsPerTrial int
	Seed          int64
}

// CellResult aggregates one Monte-Carlo cell.
type CellResult struct {
	RangeM     float64
	Trials     int
	Chips      int
	ChipErrors int
	BER        float64
	BERLow     float64 // 95% Wilson interval
	BERHigh    float64
	FrameLoss  float64 // fraction of frames with any uncorrectable burst (BER>threshold proxy)
	MeanSNRdB  float64
}

// RunCell executes one Monte-Carlo cell.
func RunCell(cfg TrialConfig) (CellResult, error) {
	if cfg.Budget == nil {
		return CellResult{}, fmt.Errorf("sim: budget required")
	}
	if err := cfg.Budget.Validate(); err != nil {
		return CellResult{}, err
	}
	if cfg.Trials < 1 || cfg.ChipsPerTrial < 1 {
		return CellResult{}, fmt.Errorf("sim: trials %d and chips %d must be positive", cfg.Trials, cfg.ChipsPerTrial)
	}
	sp := telemetry.StartSpan(metCellTime)
	rng := rand.New(rand.NewSource(cfg.Seed))
	meanSNR := math.Pow(10, cfg.Budget.ToneSNRdB(cfg.RangeM)/10)
	k := cfg.Budget.EffectiveRicianK(cfg.RangeM)

	res := CellResult{RangeM: cfg.RangeM, Trials: cfg.Trials}
	var snrSum float64
	lostFrames := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		fade := RicianPowerGain(k, rng)
		snr := meanSNR * fade
		snrSum += snr
		p := phy.BERNoncoherentFSK(snr)
		errs := binomial(cfg.ChipsPerTrial, p, rng)
		res.Chips += cfg.ChipsPerTrial
		res.ChipErrors += errs
		// A frame is lost when errors exceed what the Hamming(7,4) +
		// interleaving pipeline can absorb: more than one error per
		// codeword on average, i.e. > chips/14 errors (7-bit codewords at
		// 2 chips per bit).
		if errs > cfg.ChipsPerTrial/14 {
			lostFrames++
		}
	}
	res.BER = float64(res.ChipErrors) / float64(res.Chips)
	res.BERLow, res.BERHigh = dsp.WilsonCI(res.ChipErrors, res.Chips, 1.96)
	res.FrameLoss = float64(lostFrames) / float64(cfg.Trials)
	res.MeanSNRdB = 10 * math.Log10(snrSum/float64(cfg.Trials))
	metTrials.Add(int64(res.Trials))
	metChips.Add(int64(res.Chips))
	metChipErrors.Add(int64(res.ChipErrors))
	metLostFrames.Add(int64(lostFrames))
	metCells.Inc()
	sp.End()
	return res, nil
}

// RicianPowerGain draws a normalized power gain (mean 1) from a Rician
// distribution with K-factor k (linear). Infinite k returns 1.
func RicianPowerGain(k float64, rng *rand.Rand) float64 {
	if math.IsInf(k, 1) {
		return 1
	}
	if k < 0 {
		k = 0
	}
	spec := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	re := spec + sigma*rng.NormFloat64()
	im := sigma * rng.NormFloat64()
	return re*re + im*im
}

// binomial draws the number of successes out of n at probability p. For
// large n·p it uses a Gaussian approximation; the exact loop is kept for
// the small-probability regime where the approximation fails and the loop
// is cheap in expectation (inversion by geometric skips).
func binomial(n int, p float64, rng *rand.Rand) int {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return n
	}
	np := float64(n) * p
	if np > 30 && float64(n)*(1-p) > 30 {
		g := np + math.Sqrt(np*(1-p))*rng.NormFloat64()
		k := int(math.Round(g))
		if k < 0 {
			k = 0
		}
		if k > n {
			k = n
		}
		return k
	}
	if np < 1e-6 {
		// Expected successes are negligible: one Bernoulli draw on the
		// whole block avoids the log-underflow of the geometric method.
		if rng.Float64() < np {
			return 1
		}
		return 0
	}
	return geometricBinomial(n, math.Log1p(-p), rng.Float64)
}

// geometricBinomial counts successes by geometric skipping over failures:
// each uniform draw u yields floor(log(u)/log(1-p)) failures before the
// next success. Factored out so the u == 0 boundary is unit-testable
// without hunting for a seed whose Float64 stream hits exactly zero.
func geometricBinomial(n int, lq float64, next func() float64) int {
	k := 0
	i := 0
	for {
		u := next()
		if u <= 0 {
			// Float64 draws from [0, 1), so u can be exactly 0. log(0) is
			// -Inf and the resulting +Inf skip has no defined int
			// conversion; by continuity (u → 0⁺ means an unbounded failure
			// run) the draw skips past the block, ending the count.
			return k
		}
		i += int(math.Floor(math.Log(u)/lq)) + 1
		if i > n {
			return k
		}
		k++
	}
}

// RangeSweep runs cells across a set of ranges with a shared budget,
// deriving per-cell seeds deterministically from the base seed. The cells
// run on a RunCells pool of the given width (0 → NumCPU, 1 → serial); the
// results are bit-identical at every worker count since each cell owns its
// seed. The budget is only read, so sharing it across workers is safe.
func RangeSweep(b *core.LinkBudget, ranges []float64, trials, chipsPerTrial int, seed int64, workers int) ([]CellResult, error) {
	cfgs := make([]TrialConfig, len(ranges))
	for i, r := range ranges {
		cfgs[i] = TrialConfig{
			Budget: b, RangeM: r, Trials: trials,
			ChipsPerTrial: chipsPerTrial, Seed: seed + int64(i)*7919,
		}
	}
	return RunCells(cfgs, workers)
}
