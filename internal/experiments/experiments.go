// Package experiments reproduces the paper's evaluation artifacts: each
// function regenerates one figure or table (the rows/series the paper
// reports), returning both the rendered table and the headline metrics the
// abstract quotes. The experiment IDs follow DESIGN.md's per-experiment
// index; EXPERIMENTS.md records the paper-claimed versus measured values.
//
// Since only the paper's abstract was available verbatim (see DESIGN.md),
// the artifact set is reconstructed (marked R): the quantitative anchors
// are the abstract's claims — >300 m round-trip range at BER 10⁻³ across
// orientations in river trials, 15× the range of the prior state of the
// art at equal throughput and power, and the first ocean validation.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"

	"vab/internal/baseline"
	"vab/internal/core"
	"vab/internal/ocean"
	"vab/internal/sim"
	"vab/internal/telemetry"
	"vab/internal/workpool"
)

// Result is one regenerated artifact.
type Result struct {
	ID      string
	Title   string
	Kind    string // "figure" or "table"
	Table   *sim.Table
	Notes   []string
	Metrics map[string]float64
}

// Options tunes experiment runtime cost. The zero value selects the full
// paper-scale configuration; benchmarks shrink the trial counts.
type Options struct {
	Trials  int   // Monte-Carlo frames per cell (0 → default per experiment)
	Seed    int64 // base RNG seed
	Workers int   // concurrency for Monte-Carlo cells and RunMany (0 → NumCPU, 1 → serial)

	// Nodes overrides the fleet size for experiments that poll an abstract
	// fleet (E12; 0 → the experiment's default). Per-node draws are seeded
	// by node index, so transcripts with equal Nodes agree at any Workers.
	Nodes int

	// Faults selects the fault scenario for experiments that inject faults
	// (E11): a faults.Parse spec such as "chaos" or "shrimp+shadowing:0.5".
	// Empty selects each experiment's default. Fault-free experiments
	// ignore it.
	Faults string
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	return def
}

// workers resolves the pool width. Seeded outputs are bit-identical at any
// width (per-cell seeds own their RNGs), so defaulting to every core is
// safe — the knob only trades wall-clock against machine load.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// targetBER is the paper's operating point.
const targetBER = 1e-3

// chipsPerFrame matches the default uplink frame (8-byte sensor payload
// through the FM0+Hamming codec).
const chipsPerFrame = 392

// newVanAtta builds the headline 16-element design for an environment,
// panicking only on programming errors (element count and carrier are
// compile-time constants here).
func newVanAtta(env *ocean.Environment, n int) core.Design {
	d, err := core.NewVanAttaDesign(n, env, core.DefaultCarrierHz)
	if err != nil {
		panic(fmt.Sprintf("experiments: van atta design: %v", err))
	}
	return d
}

func newSpecular(env *ocean.Environment, n int) core.Design {
	d, err := core.NewSpecularDesign(n, env, core.DefaultCarrierHz)
	if err != nil {
		panic(fmt.Sprintf("experiments: specular design: %v", err))
	}
	return d
}

// pabBudget returns the prior-art budget in an environment: single element,
// carrier-band signaling penalty.
func pabBudget(env *ocean.Environment) *core.LinkBudget {
	b := core.NewLinkBudget(env, baseline.New())
	b.SIPenaltyDB = core.CarrierBandSIPenaltyDB
	return b
}

// runner regenerates one artifact.
type runner func(Options) (*Result, error)

// experiment is one inventory entry. optIn experiments run only when named
// explicitly: they are excluded from IDs()/RunAll so that seeded `-exp all`
// transcripts stay byte-identical as opt-in experiments are added. E11
// additionally varies with Options.Faults, which would break the
// fixed-flag reproducibility contract of the default set.
type experiment struct {
	id, desc string
	run      runner
	optIn    bool
}

// inventory lists every experiment in `vabsim -exp list` order: the
// paper's E-series, the X-series extensions, then the opt-ins.
var inventory = []experiment{
	{"E1", "range sweep in the river environment: BER and SNR vs distance", E1RangeRiver, false},
	{"E2", "SNR comparison: Van Atta vs specular vs prior-art budgets", E2SNRComparison, false},
	{"E3", "head-to-head range table at the paper's operating BER", E3HeadToHead, false},
	{"E4", "orientation sweep: retrodirective gain across node rotation", E4Orientation, false},
	{"E5", "element scaling: range vs Van Atta array size", E5ElementScaling, false},
	{"E6", "ocean validation: coastal Atlantic environment", E6Ocean, false},
	{"E7", "throughput vs range at fixed reliability", E7Throughput, false},
	{"E8", "power budget: harvested vs consumed per uplink frame", e8PowerBudget, false},
	{"E9", "matching-network sensitivity of the scattered field", e9Matching, false},
	{"E10", "full campaign: the multi-cell Monte-Carlo summary table", e10Campaign, false},
	{"X1", "extension: round-trip acoustic ranging accuracy", X1Ranging, false},
	{"X2", "extension: M-ary orthogonal signaling throughput", X2MaryThroughput, false},
	{"X3", "extension: waveform pipeline vs analytic budget cross-validation", X3WaveformValidation, false},
	{"X4", "extension: sensitivity of headline claims to environment knobs", X4Sensitivity, false},
	{"X5", "extension: environment-parameter sweeps (sound speed, spreading)", X5Environment, false},
	{"E11", "opt-in: chaos campaign — delivery vs fault intensity, recovery off/on", E11Chaos, true},
	{"E12", "opt-in: abstract-tier 100k-node fleet on the calibrated link model", E12AbstractFleet, true},
	{"E13", "opt-in: packed payload batching — readings per frame and wire bytes per reading", E13PackedPayloads, true},
	{"E14", "opt-in: network chaos — gateway delivery vs chaos intensity, session resume off/on", E14NetChaos, true},
}

// Describe returns "ID  description" inventory lines for every experiment,
// the opt-ins last.
func Describe() []string {
	out := make([]string, 0, len(inventory))
	for _, e := range inventory {
		out = append(out, fmt.Sprintf("%-4s %s", e.id, e.desc))
	}
	return out
}

// IDs returns the default experiment IDs in order: the paper's E-series
// numerically, then the X-series extensions.
func IDs() []string { return ids(false) }

// ids lists, in inventory order, the IDs whose opt-in flag equals optIn.
func ids(optIn bool) []string {
	var out []string
	for _, e := range inventory {
		if e.optIn == optIn {
			out = append(out, e.id)
		}
	}
	return out
}

// metReg holds the registry passed to Instrument; nil (the default) makes
// per-experiment wall-clock recording a no-op.
var metReg *telemetry.Registry

// Instrument enables per-experiment wall-clock histograms
// (vab_experiment_seconds{id="E1"}…) against reg. Call once at startup.
func Instrument(reg *telemetry.Registry) { metReg = reg }

// Run executes one experiment by ID (including opt-in experiments that
// RunAll skips).
func Run(id string, opts Options) (*Result, error) {
	i := slices.IndexFunc(inventory, func(e experiment) bool { return e.id == id })
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v plus opt-in %s)",
			id, IDs(), strings.Join(ids(true), ", "))
	}
	var sp telemetry.Span
	if metReg != nil {
		sp = telemetry.StartSpan(metReg.Histogram(
			telemetry.Label("vab_experiment_seconds", "id", id),
			"Wall time of one experiment run.", nil))
	}
	res, err := inventory[i].run(opts)
	if err == nil {
		sp.End()
	}
	return res, err
}

// RunAll executes every experiment, returning results in ID order. The
// experiments are mutually independent (each derives its RNGs from
// opts.Seed alone), so they run concurrently on opts.Workers goroutines;
// results and error selection are deterministic regardless of width.
func RunAll(opts Options) ([]*Result, error) {
	return RunMany(IDs(), opts)
}

// RunMany executes the named experiments concurrently and returns their
// results in the order the IDs were given. Experiments never share mutable
// state — every environment preset, design and RNG is built per run — so
// interleaving them is safe; per-cell seeding keeps each result
// bit-identical to a serial run. On failure the error of the
// earliest-listed failing experiment is returned, matching what a serial
// loop would report.
func RunMany(ids []string, opts Options) ([]*Result, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]*Result, len(ids))
	err := workpool.Run(len(ids), opts.workers(), "experiment", func(i int) error {
		res, err := Run(ids[i], opts)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", ids[i], err)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// E1RangeRiver regenerates the headline river figure (R): BER versus range
// for the 16-element VAB node at several orientations, Monte-Carlo over the
// fading distribution. The paper's claim: BER ≤ 10⁻³ beyond 300 m round
// trip, across orientations.
func E1RangeRiver(opts Options) (*Result, error) {
	env := ocean.CharlesRiver()
	b := core.NewLinkBudget(env, newVanAtta(env, core.DefaultNodeElements))
	ranges := []float64{25, 50, 100, 150, 200, 250, 300, 350, 400}
	orientations := []float64{0, 30, 60}
	trials := opts.trials(1000)

	t := sim.NewTable("E1 (R): River BER vs range, VAB-16 — paper: BER ≤ 1e-3 at 300 m across orientations",
		"range_m", "orient_deg", "tone_snr_db", "ber_mc", "ber_model", "frame_loss")
	res := &Result{ID: "E1", Title: "River BER vs range", Kind: "figure", Table: t,
		Metrics: map[string]float64{}}

	worst300 := 0.0
	for _, deg := range orientations {
		bb := *b
		bb.Orientation = deg * math.Pi / 180
		cells, err := sim.RangeSweep(&bb, ranges, trials, chipsPerFrame, opts.Seed+int64(deg), opts.workers())
		if err != nil {
			return nil, err
		}
		for i, c := range cells {
			t.AddRowf(c.RangeM, deg, c.MeanSNRdB, c.BER, bb.BER(ranges[i]), c.FrameLoss)
			if c.RangeM == 300 && c.BER > worst300 {
				worst300 = c.BER
			}
		}
	}
	res.Metrics["worst_ber_at_300m"] = worst300
	res.Metrics["range_at_target"] = b.MaxRange(targetBER, 5000)
	res.Notes = append(res.Notes,
		fmt.Sprintf("model max range at BER 1e-3: %.0f m (paper: >300 m)", res.Metrics["range_at_target"]))
	return res, nil
}

// E2SNRComparison regenerates the SNR-vs-range comparison figure (R):
// analytic tone SNR for VAB-16, the same-aperture specular array, and the
// single-element prior art. Shows the ~N² retrodirective gain directly.
func E2SNRComparison(opts Options) (*Result, error) {
	env := ocean.CharlesRiver()
	va := core.NewLinkBudget(env, newVanAtta(env, core.DefaultNodeElements))
	sp := core.NewLinkBudget(env, newSpecular(env, core.DefaultNodeElements))
	// Off-broadside at a sidelobe peak (sin 20° ≈ 5.5/16): exact nulls
	// (sinθ = m/16) would render as -∞ dB and overstate the contrast.
	sp.Orientation = 20 * math.Pi / 180
	pab := pabBudget(env)

	t := sim.NewTable("E2 (R): Tone SNR vs range (river) — VAB vs specular(20°) vs single-element",
		"range_m", "vab_snr_db", "specular_snr_db", "pab_snr_db")
	res := &Result{ID: "E2", Title: "SNR vs range comparison", Kind: "figure", Table: t,
		Metrics: map[string]float64{}}
	for _, r := range []float64{10, 20, 50, 100, 200, 300, 400} {
		t.AddRowf(r, va.ToneSNRdB(r), sp.ToneSNRdB(r), pab.ToneSNRdB(r))
	}
	res.Metrics["vab_minus_pab_db"] = va.ToneSNRdB(100) - pab.ToneSNRdB(100)
	res.Notes = append(res.Notes,
		fmt.Sprintf("VAB leads the single-element baseline by %.1f dB at every range", res.Metrics["vab_minus_pab_db"]))
	return res, nil
}

// E3HeadToHead regenerates the head-to-head comparison table (R): maximum
// range at BER 10⁻³ and equal throughput/power for VAB versus the prior
// state of the art, with the gain decomposition. The paper's claim: 15×.
func E3HeadToHead(opts Options) (*Result, error) {
	env := ocean.CharlesRiver()
	va := core.NewLinkBudget(env, newVanAtta(env, core.DefaultNodeElements))
	pab := pabBudget(env)

	vaR := va.MaxRange(targetBER, 5000)
	pabR := pab.MaxRange(targetBER, 5000)
	ratio := vaR / pabR

	arrayGain := core.EffectiveGainDB(va.Design, core.DefaultCarrierHz, 0) -
		core.EffectiveGainDB(pab.Design, core.DefaultCarrierHz, 0)
	depthPenalty := baseline.New().DepthPenaltyDB(core.DefaultCarrierHz)

	t := sim.NewTable("E3 (R): Head-to-head vs prior art at equal throughput & power — paper: 15× range",
		"system", "elements", "mod_depth", "node_gain_db", "si_penalty_db", "max_range_m")
	t.AddRowf("vab", va.Design.Elements(),
		va.Design.ModulationDepth(core.DefaultCarrierHz),
		core.EffectiveGainDB(va.Design, core.DefaultCarrierHz, 0),
		va.SIPenaltyDB, vaR)
	t.AddRowf("pab-prior-art", pab.Design.Elements(),
		pab.Design.ModulationDepth(core.DefaultCarrierHz),
		core.EffectiveGainDB(pab.Design, core.DefaultCarrierHz, 0),
		pab.SIPenaltyDB, pabR)

	res := &Result{ID: "E3", Title: "Head-to-head range comparison", Kind: "table", Table: t,
		Metrics: map[string]float64{
			"vab_range_m":       vaR,
			"pab_range_m":       pabR,
			"range_ratio":       ratio,
			"node_gain_gap_db":  arrayGain,
			"depth_penalty_db":  depthPenalty,
			"si_penalty_db":     core.CarrierBandSIPenaltyDB,
			"diversity_gain_db": core.DiversityGainDB,
		}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("measured ratio %.1f× (paper: 15×)", ratio),
		fmt.Sprintf("decomposition: %.1f dB node gain gap (array %.1f dB + matched depth %.1f dB) + %.1f dB subcarrier-vs-carrier SI + %.1f dB diversity",
			arrayGain, arrayGain-depthPenalty, depthPenalty, core.CarrierBandSIPenaltyDB, core.DiversityGainDB))
	return res, nil
}

// E4Orientation regenerates the orientation figure (R): monostatic response
// and achievable range versus rotation for the Van Atta array and the
// specular baseline — the physics behind "across orientations".
func E4Orientation(opts Options) (*Result, error) {
	env := ocean.CharlesRiver()
	vaDesign := newVanAtta(env, core.DefaultNodeElements)
	spDesign := newSpecular(env, core.DefaultNodeElements)
	va := core.NewLinkBudget(env, vaDesign)
	sp := core.NewLinkBudget(env, spDesign)

	t := sim.NewTable("E4 (R): Orientation response — retrodirective vs specular array",
		"theta_deg", "vab_gain_db", "spec_gain_db", "vab_range_m", "spec_range_m")
	res := &Result{ID: "E4", Title: "Orientation response", Kind: "figure", Table: t,
		Metrics: map[string]float64{}}

	minVA, maxVA := math.Inf(1), math.Inf(-1)
	for deg := -75.0; deg <= 75; deg += 15 {
		th := deg * math.Pi / 180
		va.Orientation, sp.Orientation = th, th
		gVA := core.EffectiveGainDB(vaDesign, core.DefaultCarrierHz, th)
		gSP := core.EffectiveGainDB(spDesign, core.DefaultCarrierHz, th)
		rVA := va.MaxRange(targetBER, 5000)
		rSP := sp.MaxRange(targetBER, 5000)
		t.AddRowf(deg, gVA, gSP, rVA, rSP)
		if rVA < minVA {
			minVA = rVA
		}
		if rVA > maxVA {
			maxVA = rVA
		}
	}
	res.Metrics["vab_min_range_m"] = minVA
	res.Metrics["vab_range_spread"] = (maxVA - minVA) / maxVA
	res.Notes = append(res.Notes,
		fmt.Sprintf("VAB worst-case range across ±75°: %.0f m (spread %.1f%%)", minVA, 100*res.Metrics["vab_range_spread"]))
	return res, nil
}

// E5ElementScaling regenerates the scalability figure (R): conversion gain
// and achievable range versus array size.
func E5ElementScaling(opts Options) (*Result, error) {
	env := ocean.CharlesRiver()
	t := sim.NewTable("E5 (R): Scaling with array size (river, BER 1e-3)",
		"elements", "node_gain_db", "max_range_m", "range_vs_single")
	res := &Result{ID: "E5", Title: "Element scaling", Kind: "figure", Table: t,
		Metrics: map[string]float64{}}

	var single float64
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		b := core.NewLinkBudget(env, newVanAtta(env, n))
		g := core.EffectiveGainDB(b.Design, core.DefaultCarrierHz, 0.3)
		r := b.MaxRange(targetBER, 10000)
		if n == 1 {
			single = r
		}
		t.AddRowf(n, g, r, r/single)
		res.Metrics[fmt.Sprintf("range_n%d", n)] = r
	}
	res.Metrics["range_gain_16_vs_1"] = res.Metrics["range_n16"] / res.Metrics["range_n1"]
	return res, nil
}

// E6Ocean regenerates the ocean-validation figure (R): BER versus range in
// the Atlantic coastal preset alongside the river curve. The paper's claim:
// first experimental validation of underwater backscatter in the ocean.
func E6Ocean(opts Options) (*Result, error) {
	river := ocean.CharlesRiver()
	sea := ocean.AtlanticCoastal()
	bRiver := core.NewLinkBudget(river, newVanAtta(river, core.DefaultNodeElements))
	bSea := core.NewLinkBudget(sea, newVanAtta(sea, core.DefaultNodeElements))
	// Near-surface mooring as in the coastal deployment.
	bSea.ReaderDepth, bSea.NodeDepth = 3, 4
	trials := opts.trials(1000)

	ranges := []float64{25, 50, 75, 100, 150, 200, 250, 300}
	riverCells, err := sim.RangeSweep(bRiver, ranges, trials, chipsPerFrame, opts.Seed+100, opts.workers())
	if err != nil {
		return nil, err
	}
	seaCells, err := sim.RangeSweep(bSea, ranges, trials, chipsPerFrame, opts.Seed+200, opts.workers())
	if err != nil {
		return nil, err
	}

	t := sim.NewTable("E6 (R): Ocean validation — BER vs range, river vs coastal ocean",
		"range_m", "river_ber", "ocean_ber", "river_snr_db", "ocean_snr_db")
	for i := range ranges {
		t.AddRowf(ranges[i], riverCells[i].BER, seaCells[i].BER,
			riverCells[i].MeanSNRdB, seaCells[i].MeanSNRdB)
	}
	res := &Result{ID: "E6", Title: "Ocean validation", Kind: "figure", Table: t,
		Metrics: map[string]float64{
			"ocean_range_at_target": bSea.MaxRange(targetBER, 5000),
			"river_range_at_target": bRiver.MaxRange(targetBER, 5000),
		}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("ocean max range %.0f m vs river %.0f m: ocean noise and absorption cost range but the system operates (the paper's first-ocean-validation claim)",
			res.Metrics["ocean_range_at_target"], res.Metrics["river_range_at_target"]))
	return res, nil
}

// E7Throughput regenerates the throughput-vs-range figure (R): achievable
// range at BER 10⁻³ for different chip rates, plus the effective goodput
// after line coding and FEC. Lower rates narrow the detection bandwidth,
// buying range — the axis along which "same throughput" comparisons are
// made.
func E7Throughput(opts Options) (*Result, error) {
	env := ocean.CharlesRiver()
	d := newVanAtta(env, core.DefaultNodeElements)
	t := sim.NewTable("E7 (R): Throughput vs range (river, BER 1e-3)",
		"chip_rate_cps", "goodput_bps", "noise_bw_db", "max_range_m")
	res := &Result{ID: "E7", Title: "Throughput vs range", Kind: "figure", Table: t,
		Metrics: map[string]float64{}}

	for _, rate := range []float64{125, 250, 500, 1000, 2000} {
		b := core.NewLinkBudget(env, d)
		b.ChipRate = rate
		r := b.MaxRange(targetBER, 20000)
		// FM0 halves the chip rate into bits; Hamming(7,4) leaves 4/7.
		goodput := rate / 2 * 4 / 7
		t.AddRowf(rate, goodput, 10*math.Log10(rate), r)
		res.Metrics[fmt.Sprintf("range_at_%.0fcps", rate)] = r
	}
	res.Notes = append(res.Notes,
		"halving the chip rate buys ~1 dB of detection SNR (3 dB noise bandwidth − 2·TL slope), extending range")
	return res, nil
}
