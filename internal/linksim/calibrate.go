package linksim

import (
	"fmt"
	"math"
	"sort"

	"vab/internal/core"
	"vab/internal/faults"
	"vab/internal/ocean"
	"vab/internal/workpool"
)

// Environments the calibrator (and the abstract tier) knows by name.
var envPresets = map[string]func() *ocean.Environment{
	"river": ocean.CharlesRiver,
	"ocean": ocean.AtlanticCoastal,
}

// EnvByName builds a calibration environment preset.
func EnvByName(name string) (*ocean.Environment, error) {
	mk, ok := envPresets[name]
	if !ok {
		names := make([]string, 0, len(envPresets))
		for n := range envPresets {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("linksim: unknown environment %q (have %v)", name, names)
	}
	return mk(), nil
}

// CalibrateConfig is a calibration campaign: the grid to sample and the
// waveform effort per cell. The zero value is not runnable; start from
// DefaultCalibrateConfig.
type CalibrateConfig struct {
	Envs        []string
	RangesM     []float64
	OrientsRad  []float64
	Intensities []float64

	// Scenario is the fault spec (faults.Parse syntax) behind the
	// intensity axis; each non-zero grid intensity runs the waveform tier
	// under Scale(intensity) of this scenario.
	Scenario string

	RoundsPerCell int
	Seed          int64
	// Workers bounds the cell worker pool (<= 0 → serial). Cells own
	// their seeds, so the table is bit-identical at any width.
	Workers int
}

// DefaultCalibrateConfig is the committed-table grid: both campaign
// environments, the paper's range span, the E1 orientation set, and three
// points along the chaos-severity axis, at enough rounds per cell to pin
// delivery probabilities to a few percent.
func DefaultCalibrateConfig() CalibrateConfig {
	return CalibrateConfig{
		Envs:          []string{"river", "ocean"},
		RangesM:       []float64{25, 50, 100, 150, 200, 250, 300},
		OrientsRad:    []float64{0, 30 * math.Pi / 180, 60 * math.Pi / 180},
		Intensities:   []float64{0, 0.5, 1},
		Scenario:      "chaos",
		RoundsPerCell: 40,
		Seed:          7,
	}
}

// Validate reports unrunnable calibration configs.
func (c *CalibrateConfig) Validate() error {
	if len(c.Envs) == 0 || len(c.RangesM) == 0 || len(c.OrientsRad) == 0 || len(c.Intensities) == 0 {
		return fmt.Errorf("linksim: calibration grid has an empty axis")
	}
	if c.RoundsPerCell < 1 {
		return fmt.Errorf("linksim: rounds per cell %d must be positive", c.RoundsPerCell)
	}
	for _, name := range c.Envs {
		if _, err := EnvByName(name); err != nil {
			return err
		}
	}
	if _, err := faults.Parse(c.Scenario, 1); err != nil {
		return fmt.Errorf("linksim: calibration scenario: %w", err)
	}
	return nil
}

// Calibrate measures a Table against the waveform tier: every grid cell
// runs RoundsPerCell full waveform rounds (core.System.RunRound) at its
// geometry, environment and scaled fault scenario, and the observed
// delivery fraction, SNR distribution and correction counts become the
// cell's statistics. Post-processing enforces the physical shape the
// model relies on: delivery probability is made monotone non-increasing
// along range (isotonic regression) and clamped to [0, 1], and the
// logistic SNR→delivery transfer is fitted across all cells.
//
// The table is a pure function of cfg — per-cell seeds derive from
// (cfg.Seed, cell index), so any worker count yields the same bytes.
func Calibrate(cfg CalibrateConfig) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		FormatVersion: TableFormatVersion,
		Scenario:      cfg.Scenario,
		Seed:          cfg.Seed,
		RoundsPerCell: cfg.RoundsPerCell,
		Envs:          append([]string(nil), cfg.Envs...),
		RangesM:       append([]float64(nil), cfg.RangesM...),
		OrientsRad:    append([]float64(nil), cfg.OrientsRad...),
		Intensities:   append([]float64(nil), cfg.Intensities...),
		Cells:         make([]Cell, len(cfg.Envs)*len(cfg.Intensities)*len(cfg.OrientsRad)*len(cfg.RangesM)),
	}

	type job struct {
		idx               int
		env               string
		intensity         float64
		orientRad, rangeM float64
	}
	var jobs []job
	for ei, env := range cfg.Envs {
		for ii, in := range cfg.Intensities {
			for oi, or := range cfg.OrientsRad {
				for ri, r := range cfg.RangesM {
					jobs = append(jobs, job{
						idx: t.cellIndex(ei, ii, oi, ri),
						env: env, intensity: in, orientRad: or, rangeM: r,
					})
				}
			}
		}
	}

	meas := make([]cellMeasurement, len(t.Cells))
	err := workpool.Run(len(jobs), cfg.Workers, "calibrate_cell", func(i int) error {
		j := jobs[i]
		m, err := calibrateCell(cfg, j.env, j.intensity, j.orientRad, j.rangeM, int64(j.idx))
		if err != nil {
			return fmt.Errorf("linksim: cell %s i=%.2g θ=%.2f r=%.0f: %w",
				j.env, j.intensity, j.orientRad, j.rangeM, err)
		}
		meas[j.idx] = m
		t.Cells[j.idx] = m.cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.ChipRate = meas[0].chipRate // identical across cells: the default PHY numerology
	t.SourceLevelDB = core.DefaultSourceLevelDB

	// Cells too sparse to estimate an SNR distribution (fewer than three
	// delivered frames) fall back to the analytic budget for the SNR
	// location — but the waveform estimator sits a few dB below the
	// closed-form tone SNR (it pays for acquisition error, ISI and SI
	// residue; X3 documents the same gap for delivery). Measure that bias
	// on the well-sampled cells and apply it to the fallbacks, so SNR
	// means never jump *up* where the link got too weak to measure.
	//
	// The budget reads the cell's design after the fault engine has run,
	// so a cell whose elements were all killed has an analytic SNR of
	// −Inf. Such cells stay out of the bias, and every fallback is floored
	// at the lowest finite cell SNR: the table must stay finite for the
	// logistic fit and for JSON.
	var biasSum float64
	var biasN int
	for i := range meas {
		if meas[i].delivered >= 3 && isFinite(meas[i].analyticSNRdB) {
			biasSum += meas[i].analyticSNRdB - t.Cells[i].SNRMeanDB
			biasN++
		}
	}
	if biasN > 0 {
		bias := biasSum / float64(biasN)
		for i := range meas {
			if meas[i].delivered < 3 {
				t.Cells[i].SNRMeanDB = meas[i].analyticSNRdB - bias
			}
		}
	}
	floor, _ := finiteSNRRange(t.Cells)
	if math.IsInf(floor, 1) {
		return nil, fmt.Errorf("linksim: no cell has a finite SNR")
	}
	for i := range t.Cells {
		if !isFinite(t.Cells[i].SNRMeanDB) {
			t.Cells[i].SNRMeanDB = floor
		}
	}

	// Shape enforcement: delivery probability monotone non-increasing in
	// range within every (env, intensity, orientation) series. Monte-Carlo
	// wiggle would otherwise let a far cell beat a near one, which the
	// model (and the satellite monotonicity test) forbids.
	for ei := range cfg.Envs {
		for ii := range cfg.Intensities {
			for oi := range cfg.OrientsRad {
				series := make([]float64, len(cfg.RangesM))
				for ri := range cfg.RangesM {
					series[ri] = t.Cells[t.cellIndex(ei, ii, oi, ri)].PDeliver
				}
				isotonicNonIncreasing(series)
				for ri := range cfg.RangesM {
					t.Cells[t.cellIndex(ei, ii, oi, ri)].PDeliver = clamp01(series[ri])
				}
			}
		}
	}

	t.LogisticK, t.LogisticSNR50 = fitLogistic(t.Cells)
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// cellMeasurement is one cell's raw campaign outcome: the provisional
// cell, the analytic budget's SNR prediction at the same geometry, and how
// many frames the statistics rest on.
type cellMeasurement struct {
	cell          Cell
	analyticSNRdB float64
	delivered     int
	chipRate      float64
}

// calibrateCell measures one grid cell with the waveform tier.
func calibrateCell(cfg CalibrateConfig, envName string, intensity, orientRad, rangeM float64, cellIdx int64) (cellMeasurement, error) {
	var m cellMeasurement
	env, err := EnvByName(envName)
	if err != nil {
		return m, err
	}
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		return m, err
	}
	cellSeed := int64(mix(uint64(cfg.Seed), uint64(cellIdx)) >> 1)
	sys, err := core.NewSystem(core.SystemConfig{
		Env: env, Design: design,
		Range: rangeM, Orientation: orientRad,
		NodeAddr: 1, Seed: cellSeed,
	})
	if err != nil {
		return m, err
	}
	if intensity > 0 {
		sc, err := faults.Parse(cfg.Scenario, cellSeed+77)
		if err != nil {
			return m, err
		}
		eng, err := faults.NewEngine(sc.Scale(intensity))
		if err != nil {
			return m, err
		}
		sys.SetFaultEngine(eng)
	}

	tally, err := soakAndPoll(sys, cfg.RoundsPerCell)
	if err != nil {
		return m, err
	}
	delivered := tally.delivered

	b := core.NewLinkBudget(env, design)
	b.Orientation = orientRad
	m.analyticSNRdB = b.ToneSNRdB(rangeM)
	m.delivered = delivered
	m.chipRate = sys.ChipRate()
	m.cell = Cell{
		PDeliver: float64(delivered) / float64(cfg.RoundsPerCell),
		DelayMs:  2 * rangeM / env.MeanSoundSpeed() * 1000,
	}
	switch {
	case delivered >= 3:
		mean := tally.snrSum / float64(delivered)
		variance := tally.snrSumSq/float64(delivered) - mean*mean
		if variance < 0 {
			variance = 0
		}
		m.cell.SNRMeanDB = mean
		m.cell.SNRStdDB = math.Sqrt(variance)
		if m.cell.SNRStdDB < 0.5 {
			m.cell.SNRStdDB = 0.5 // floor: never degenerate to a point mass
		}
		m.cell.CorrMean = tally.corrSum / float64(delivered)
	default:
		// Too few deliveries to estimate a distribution: the analytic
		// budget provides the SNR location (bias-corrected by Calibrate
		// against the well-sampled cells), with a wide spread and the FEC
		// near its correction cliff.
		m.cell.SNRMeanDB = m.analyticSNRdB
		m.cell.SNRStdDB = 2
		if delivered > 0 {
			m.cell.CorrMean = tally.corrSum / float64(delivered)
		} else {
			m.cell.CorrMean = 8
		}
	}
	return m, nil
}

// pollTally is the outcome of a run of waveform polls on one system.
type pollTally struct {
	delivered                 int
	snrSum, snrSumSq, corrSum float64 // over delivered polls, SNR in dB
}

// soakAndPoll runs n waveform polls (core.System.Poll) on sys after the
// pre-campaign soak core.Fleet.Deploy(3600) applies in the fleet
// experiments: without it the node runs from an empty energy store and
// the delivery fraction reflects harvest duty-cycling at the link's range
// rather than the channel. The calibrator and the hero checker both
// measure through it.
func soakAndPoll(sys *core.System, n int) (pollTally, error) {
	var t pollTally
	sys.WakeNode(3600)
	for r := 0; r < n; r++ {
		rep, err := sys.Poll()
		if err != nil {
			return t, err
		}
		if !rep.Rx.OK() {
			continue
		}
		snr := rep.SNRdB()
		t.delivered++
		t.snrSum += snr
		t.snrSumSq += snr * snr
		t.corrSum += float64(rep.Rx.Corrected)
	}
	return t, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// isotonicNonIncreasing replaces series in place with its least-squares
// monotone non-increasing fit (pool-adjacent-violators on the negated
// series).
func isotonicNonIncreasing(series []float64) {
	n := len(series)
	if n < 2 {
		return
	}
	// PAV for non-decreasing on the negated values.
	vals := make([]float64, 0, n)
	weights := make([]float64, 0, n)
	for _, v := range series {
		vals = append(vals, -v)
		weights = append(weights, 1)
		for len(vals) > 1 && vals[len(vals)-2] > vals[len(vals)-1] {
			w := weights[len(weights)-2] + weights[len(weights)-1]
			v := (vals[len(vals)-2]*weights[len(weights)-2] + vals[len(vals)-1]*weights[len(weights)-1]) / w
			vals = vals[:len(vals)-1]
			weights = weights[:len(weights)-1]
			vals[len(vals)-1] = v
			weights[len(weights)-1] = w
		}
	}
	i := 0
	for b, v := range vals {
		for k := 0; k < int(weights[b]); k++ {
			series[i] = -v
			i++
		}
	}
}

// fitLogistic fits p = 1/(1+exp(-k(snr-snr50))) across cells by a
// deterministic coarse grid search minimizing squared error. Cells pinned
// at exactly 0 or 1 still vote: they anchor the curve's tails.
func fitLogistic(cells []Cell) (k, snr50 float64) {
	minSNR, maxSNR := finiteSNRRange(cells)
	if math.IsInf(minSNR, 1) || minSNR == maxSNR {
		return 0.8, minSNR - 5 // degenerate grid: a gentle default curve
	}
	bestErr := math.Inf(1)
	k, snr50 = 0.8, (minSNR+maxSNR)/2
	for kk := 0.05; kk <= 3.0; kk += 0.05 {
		for mid := minSNR - 10; mid <= maxSNR+10; mid += 0.25 {
			var sse float64
			for _, c := range cells {
				p := 1 / (1 + math.Exp(-kk*(c.SNRMeanDB-mid)))
				d := c.PDeliver - p
				sse += d * d
			}
			if sse < bestErr {
				bestErr, k, snr50 = sse, kk, mid
			}
		}
	}
	return k, snr50
}

// finiteSNRRange returns the lowest and highest finite cell SNR means
// (+Inf and −Inf when there is none): a grid bounded by an infinite SNR
// would never end.
func finiteSNRRange(cells []Cell) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, c := range cells {
		if isFinite(c.SNRMeanDB) {
			lo, hi = min(lo, c.SNRMeanDB), max(hi, c.SNRMeanDB)
		}
	}
	return lo, hi
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
