// Package vab's root benchmark harness regenerates every evaluation
// artifact of the reproduction (one benchmark per paper table/figure,
// E1…E10), runs the design-choice ablations called out in DESIGN.md, and
// times the workloads the per-layer ladder of internal/benchmark does not
// (Monte-Carlo cells, the 64-node waveform fleet cycle, the TDL crossover
// sweep). Custom metrics attached to each benchmark carry the headline
// numbers (ranges in meters, ratios, SNRs) so a bench run doubles as a
// results summary:
//
//	go test -bench=. -benchmem
//
// A workload the ladder times (FFT kernels, link rebuild, uplink noise,
// acquisition, …) is defined there only; run it with
// `bash internal/benchmark/run.sh --workload calibrate --trace 1`.
package vab

import (
	"math"
	"math/rand"
	"testing"

	"vab/internal/baseline"
	"vab/internal/channel"
	"vab/internal/core"
	"vab/internal/dsp"
	"vab/internal/experiments"
	"vab/internal/link"
	"vab/internal/mac"
	"vab/internal/ocean"
	"vab/internal/phy"
	"vab/internal/reader"
	"vab/internal/sim"
)

// benchExperiment runs one experiment per iteration and reports its
// headline metrics.
func benchExperiment(b *testing.B, id string, metrics []string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Trials: 100, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- One benchmark per reproduced table/figure (see DESIGN.md index). ---

func BenchmarkE1RangeRiver(b *testing.B) {
	benchExperiment(b, "E1", []string{"range_at_target"})
}

func BenchmarkE2SNRComparison(b *testing.B) {
	benchExperiment(b, "E2", []string{"vab_minus_pab_db"})
}

func BenchmarkE3HeadToHead(b *testing.B) {
	benchExperiment(b, "E3", []string{"range_ratio", "vab_range_m", "pab_range_m"})
}

func BenchmarkE4Orientation(b *testing.B) {
	benchExperiment(b, "E4", []string{"vab_min_range_m"})
}

func BenchmarkE5ElementScaling(b *testing.B) {
	benchExperiment(b, "E5", []string{"range_gain_16_vs_1"})
}

func BenchmarkE6Ocean(b *testing.B) {
	benchExperiment(b, "E6", []string{"ocean_range_at_target"})
}

func BenchmarkE7Throughput(b *testing.B) {
	benchExperiment(b, "E7", []string{"range_at_500cps"})
}

func BenchmarkE8PowerBudget(b *testing.B) {
	benchExperiment(b, "E8", []string{"harvest_breakeven_m", "battery_years"})
}

func BenchmarkE9Matching(b *testing.B) {
	benchExperiment(b, "E9", []string{"matched_depth_gain_db", "match_bw_hz"})
}

func BenchmarkE10Campaign(b *testing.B) {
	benchExperiment(b, "E10", []string{"total_trials"})
}

// BenchmarkE10CampaignSerial pins the pre-parallelization baseline: the
// same campaign with the worker pool forced to width 1. The ratio of this
// to BenchmarkE10Campaign is the measured speedup of the parallel
// Monte-Carlo harness (≈ the core count on a multi-core runner; outputs
// are bit-identical either way).
func BenchmarkE10CampaignSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("E10", experiments.Options{
			Trials: 100, Seed: int64(i + 1), Workers: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// BenchmarkAblationDiversity compares achievable range with and without
// multipath diversity combining at the receiver.
func BenchmarkAblationDiversity(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		bw := core.NewLinkBudget(env, d)
		with = bw.MaxRange(1e-3, 5000)
		bo := core.NewLinkBudget(env, d)
		bo.DiversityBranches = 1
		bo.DiversityGainDB = 0
		without = bo.MaxRange(1e-3, 5000)
	}
	b.ReportMetric(with, "range_with_div_m")
	b.ReportMetric(without, "range_no_div_m")
}

// BenchmarkAblationMatching compares achievable range with matched
// switching versus the unmatched prior-art switch states on the same
// Van Atta array.
func BenchmarkAblationMatching(b *testing.B) {
	env := ocean.CharlesRiver()
	matched, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	unmatched, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	unmatched.OffLoad = complex(30, 0) // bare-switch parasitic off state
	var rm, ru float64
	for i := 0; i < b.N; i++ {
		rm = core.NewLinkBudget(env, matched).MaxRange(1e-3, 5000)
		ru = core.NewLinkBudget(env, unmatched).MaxRange(1e-3, 5000)
	}
	b.ReportMetric(rm, "range_matched_m")
	b.ReportMetric(ru, "range_unmatched_m")
}

// BenchmarkAblationSubcarrier compares the subcarrier-FSK architecture
// against carrier-band signaling (the prior art's choice) on the same
// hardware: the residual self-interference penalty is the difference.
func BenchmarkAblationSubcarrier(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	var sub, carrier float64
	for i := 0; i < b.N; i++ {
		bs := core.NewLinkBudget(env, d)
		sub = bs.MaxRange(1e-3, 5000)
		bc := core.NewLinkBudget(env, d)
		bc.SIPenaltyDB = core.CarrierBandSIPenaltyDB
		carrier = bc.MaxRange(1e-3, 5000)
	}
	b.ReportMetric(sub, "range_subcarrier_m")
	b.ReportMetric(carrier, "range_carrierband_m")
}

// BenchmarkAblationLineCode compares the frame chip overhead of the three
// line codes at equal FEC, the cost axis of the DC-free coding choice.
func BenchmarkAblationLineCode(b *testing.B) {
	f := &link.Frame{Type: link.FrameData, Addr: 1, Payload: make([]byte, 8)}
	codecs := map[string]link.Codec{
		"nrz":        {Code: link.NRZ, FEC: true, InterleaveDepth: 7},
		"manchester": {Code: link.Manchester, FEC: true, InterleaveDepth: 7},
		"fm0":        {Code: link.FM0, FEC: true, InterleaveDepth: 7},
	}
	for i := 0; i < b.N; i++ {
		for _, c := range codecs {
			if _, err := c.EncodeFrame(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	for name, c := range codecs {
		b.ReportMetric(float64(c.ChipLength(8)), name+"_chips")
	}
}

// BenchmarkAblationFidelityTiers cross-checks the analytic tier against a
// Monte-Carlo cell at the 300 m operating point (model agreement ratio).
func BenchmarkAblationFidelityTiers(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	bud := core.NewLinkBudget(env, d)
	var mc sim.CellResult
	for i := 0; i < b.N; i++ {
		var err error
		mc, err = sim.RunCell(sim.TrialConfig{
			Budget: bud, RangeM: 300, Trials: 2000, ChipsPerTrial: 392, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mc.BER, "mc_ber")
	b.ReportMetric(bud.BER(300), "model_ber")
}

// --- Waveform-pipeline benches: the per-round cost of the full system. ---

func BenchmarkSystemRound(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewSystem(core.SystemConfig{
		Env: env, Design: d, Range: 60, NodeAddr: 1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.WakeNode(3600)
	ok := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WakeNode(30)
		rep, err := s.RunRound()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Rx.OK() {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "decode_rate")
}

// benchFleetCycle measures one full polling cycle of a 64-node deployment
// at the given poll-pool width. The Serial/Parallel pair quantifies the
// scheduler pool's speedup on whatever machine runs the suite — seeded
// cycle output is bit-identical at every width, so the pair measures pure
// scheduling, not behavioral drift.
func benchFleetCycle(b *testing.B, workers int) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	placements := make([]core.NodePlacement, 64)
	for i := range placements {
		placements[i] = core.NodePlacement{
			Addr:        byte(i + 1),
			Range:       40 + float64(i), // 40 m … 103 m: deliverable, so every cycle polls 64
			Orientation: 0.1 * float64(i%7),
		}
	}
	f, err := core.NewFleet(
		core.SystemConfig{Env: env, Design: d, Range: 1, Seed: 99},
		placements, mac.DefaultPollPolicy(),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	f.SetWorkers(workers)
	f.Deploy(3600)
	if _, _, err := f.RunCycle(); err != nil { // warm plans and scratch
		b.Fatal(err)
	}
	var polled, delivered int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rep, err := f.RunCycle()
		if err != nil {
			b.Fatal(err)
		}
		polled += rep.Polled
		delivered += rep.Delivered
	}
	b.ReportMetric(float64(delivered)/float64(polled), "delivery_rate")
	b.ReportMetric(float64(polled)/float64(b.N), "nodes_per_cycle")
}

func BenchmarkFleetCycleSerial(b *testing.B)   { benchFleetCycle(b, 1) }
func BenchmarkFleetCycleParallel(b *testing.B) { benchFleetCycle(b, 0) }

func BenchmarkChannelRoundTrip(b *testing.B) {
	l, err := channel.New(channel.Config{
		Env: ocean.CharlesRiver(), CarrierHz: 18.5e3, SampleRate: 16e3,
		ReaderDepth: 1.6, NodeDepth: 2.4, Range: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := 16384
	tx := phy.CarrierEnvelope(n)
	gamma := make([]complex128, n)
	for i := range gamma {
		gamma[i] = complex(float64(i%2), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RoundTrip(tx, gamma, complex(0.1, 0)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n * 16))
}

// BenchmarkChannelRoundTripInto is the steady-state form of
// BenchmarkChannelRoundTrip: same link and waveforms, writing into a
// reused capture buffer. The delta between the two is what the
// allocation-free pipeline buys per round.
func BenchmarkChannelRoundTripInto(b *testing.B) {
	l, err := channel.New(channel.Config{
		Env: ocean.CharlesRiver(), CarrierHz: 18.5e3, SampleRate: 16e3,
		ReaderDepth: 1.6, NodeDepth: 2.4, Range: 100, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := 16384
	tx := phy.CarrierEnvelope(n)
	gamma := make([]complex128, n)
	for i := range gamma {
		gamma[i] = complex(float64(i%2), 0)
	}
	dst := make([]complex128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RoundTripInto(dst, tx, gamma, complex(0.1, 0)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n * 16))
}

// BenchmarkLinkNew measures from-scratch link construction, the path the
// per-round Rebuild (the ladder's channel.rebuild_us) replaced in the
// round pipeline.
func BenchmarkLinkNew(b *testing.B) {
	cfg := channel.Config{
		Env: ocean.CharlesRiver(), CarrierHz: 18.5e3, SampleRate: 16e3,
		ReaderDepth: 1.6, NodeDepth: 2.4, Range: 100,
		SelfInterferenceDB: -30, ColoredNoise: true, Seed: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := channel.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTDL measures one TDL engine at a given tap count over a 16 k-sample
// block — the data behind the time/frequency crossover documented on
// channel.TDL.
func benchTDL(b *testing.B, nTaps int, freq bool) {
	rng := rand.New(rand.NewSource(3))
	taps := make([]channel.Tap, nTaps)
	for i := range taps {
		taps[i] = channel.Tap{
			DelaySamples: 500 + rng.Float64()*400,
			Gain:         complex(rng.NormFloat64(), rng.NormFloat64()),
		}
	}
	n := 16384
	x := dsp.GaussianNoise(make([]complex128, n), 1, rng)
	dst := make([]complex128, n)
	tdl := channel.NewTDL(taps, freq)
	tdl.Apply(dst, x) // warm scratch + FFT plans
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tdl.Apply(dst, x)
	}
	b.SetBytes(int64(n * 16))
}

func BenchmarkTDLTime4(b *testing.B)  { benchTDL(b, 4, false) }
func BenchmarkTDLFreq4(b *testing.B)  { benchTDL(b, 4, true) }
func BenchmarkTDLTime16(b *testing.B) { benchTDL(b, 16, false) }
func BenchmarkTDLFreq16(b *testing.B) { benchTDL(b, 16, true) }
func BenchmarkTDLTime64(b *testing.B) { benchTDL(b, 64, false) }
func BenchmarkTDLFreq64(b *testing.B) { benchTDL(b, 64, true) }

// --- DSP micro-benches. ---

func BenchmarkRFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.RFFT(x)
	}
	b.SetBytes(1024 * 8)
}

// BenchmarkGoertzelChip times the demodulator's per-chip tone detection:
// ToneBank.Energies over one chip of the default numerology (both
// subcarriers, one pass).
func BenchmarkGoertzelChip(b *testing.B) {
	p := phy.DefaultParams()
	spc := p.SamplesPerChip()
	bank := dsp.NewToneBank([]float64{p.F0, p.F1}, p.SampleRate, spc)
	rng := rand.New(rand.NewSource(1))
	x := dsp.GaussianNoise(make([]complex128, spc), 1, rng)
	e := make([]float64, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Energies(e, x)
	}
}

// BenchmarkCancellerProcess times the reader's leakage canceller over one
// 13,792-sample capture, the uplink length of a default round.
func BenchmarkCancellerProcess(b *testing.B) {
	const n = 13792
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(1+0.1*rng.NormFloat64(), 0)
	}
	y := dsp.GaussianNoise(make([]complex128, n), 1, rng)
	buf := make([]complex128, n)
	c := phy.NewAdaptiveCanceller(0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, y)
		c.Reset()
		c.Process(buf, x)
	}
	b.SetBytes(n * 16)
}

func BenchmarkFrameCodec(b *testing.B) {
	c := link.DefaultCodec()
	f := &link.Frame{Type: link.FrameData, Addr: 3, Seq: 1, Payload: make([]byte, 8)}
	chips, err := c.EncodeFrame(f)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeFrame(chips); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkBudgetBER(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	bud := core.NewLinkBudget(env, d)
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc += bud.BER(100 + float64(i%300))
	}
	if math.IsNaN(acc) {
		b.Fatal("NaN")
	}
}

func BenchmarkMultipathEnumeration(b *testing.B) {
	env := ocean.CharlesRiver()
	cfg := ocean.DefaultMultipathConfig(18.5e3)
	g := ocean.Geometry{SourceDepth: 1.6, ReceiverDepth: 2.4, Range: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Multipath(g, cfg)
	}
}

func BenchmarkVanAttaScatter(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(16, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ScatterField(core.DefaultCarrierHz, float64(i%90)/90)
	}
}

func BenchmarkPABGain(b *testing.B) {
	d := baseline.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ScatterField(core.DefaultCarrierHz, 0.5)
	}
}

func BenchmarkMonteCarloCell(b *testing.B) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	bud := core.NewLinkBudget(env, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCell(sim.TrialConfig{
			Budget: bud, RangeM: 250, Trials: 100, ChipsPerTrial: 392, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMonteCarloSweep measures a 16-cell RunCells batch at the given pool
// width; the serial/parallel pair quantifies the worker-pool speedup on
// whatever machine runs the suite.
func benchMonteCarloSweep(b *testing.B, workers int) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	bud := core.NewLinkBudget(env, d)
	cfgs := make([]sim.TrialConfig, 16)
	for i := range cfgs {
		cfgs[i] = sim.TrialConfig{
			Budget: bud, RangeM: 100 + 20*float64(i), Trials: 100,
			ChipsPerTrial: 392, Seed: int64(i + 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCells(cfgs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloSweepSerial(b *testing.B)   { benchMonteCarloSweep(b, 1) }
func BenchmarkMonteCarloSweepParallel(b *testing.B) { benchMonteCarloSweep(b, 0) }

// --- Extension benches (X-series). ---

func BenchmarkX1Ranging(b *testing.B) {
	benchExperiment(b, "X1", []string{"worst_error_m"})
}

func BenchmarkX2MaryThroughput(b *testing.B) {
	benchExperiment(b, "X2", []string{"range_2fsk_m", "range_4fsk_m"})
}

func BenchmarkMFSKDemod(b *testing.B) {
	p := phy.DefaultMFSKParams()
	m, err := phy.NewMFSKModulator(p)
	if err != nil {
		b.Fatal(err)
	}
	d, err := phy.NewMFSKDemodulator(p)
	if err != nil {
		b.Fatal(err)
	}
	syms := make([]byte, 256)
	rng := rand.New(rand.NewSource(1))
	for i := range syms {
		syms[i] = byte(rng.Intn(4))
	}
	g, err := m.GammaWaveform(syms)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]complex128, len(g))
	for i, v := range g {
		y[i] = complex(0.1*v, 0)
	}
	acq := phy.Acquisition{Start: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.DemodSymbols(y, acq, len(syms)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEqualizer measures the decision-feedback equalizer's
// effect on single-shot decode rate across coastal channel realizations
// (the ISI-limited regime it targets).
func BenchmarkAblationEqualizer(b *testing.B) {
	env := ocean.AtlanticCoastal()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		b.Fatal(err)
	}
	run := func(eq bool) float64 {
		ok := 0
		const seeds = 20
		for seed := int64(0); seed < seeds; seed++ {
			rcfg := reader.DefaultConfig()
			rcfg.UseEqualizer = eq
			s, err := core.NewSystem(core.SystemConfig{
				Env: env, Design: d, Range: 40,
				ReaderDepth: 3, NodeDepth: 4, NodeAddr: 7, Seed: seed,
				Reader: rcfg,
			})
			if err != nil {
				b.Fatal(err)
			}
			s.WakeNode(3600)
			rep, err := s.RunRound()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Rx.OK() {
				ok++
			}
		}
		return float64(ok) / seeds
	}
	var plain, equalized float64
	for i := 0; i < b.N; i++ {
		plain = run(false)
		equalized = run(true)
	}
	b.ReportMetric(plain, "decode_rate_plain")
	b.ReportMetric(equalized, "decode_rate_equalized")
}

func BenchmarkX3WaveformValidation(b *testing.B) {
	benchExperiment(b, "X3", []string{"worst_delivery_gap"})
}

func BenchmarkX4Sensitivity(b *testing.B) {
	benchExperiment(b, "X4", []string{"nominal_ratio", "ratio_min", "ratio_max"})
}

func BenchmarkX5Environment(b *testing.B) {
	benchExperiment(b, "X5", []string{"range_at_7mps", "range_at_18mps"})
}
