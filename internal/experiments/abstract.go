package experiments

import (
	"fmt"

	"vab/internal/faults"
	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/sim"
)

// E12AbstractFleet runs the link-abstraction tier at deployment scale: a
// 100 000-node fleet (Options.Nodes overrides, up to millions) polled for
// Options.Trials cycles (default 10) through the calibrated statistical
// model, under the fault scenario from Options.Faults (default "chaos"),
// with the full recovery stack — MAC probation and SNR-triggered rate
// stepdown — plus hero-link waveform cross-checks every cycle.
//
// E12 is opt-in (not part of IDs()/RunAll), like E11: it varies with
// Options.Faults and would otherwise break the fixed `-exp all` transcript
// contract. Fixed (Seed, Trials, Nodes, Faults) make the run fully
// deterministic at any -workers count — the property the abstract-tier CI
// legs check by byte-comparing workers=1 against workers=8, at the default
// size and at a million nodes.
func E12AbstractFleet(opts Options) (*Result, error) {
	nodes := opts.Nodes
	if nodes == 0 {
		nodes = 100_000
	}
	if nodes < 0 {
		return nil, fmt.Errorf("experiments: E12 needs a positive node count, got %d", nodes)
	}
	cycles := opts.trials(10)
	spec := opts.Faults
	if spec == "" {
		spec = "chaos"
	}
	sc, err := faults.Parse(spec, opts.Seed+12001)
	if err != nil {
		return nil, err
	}
	eng, err := faults.NewEngine(sc)
	if err != nil {
		return nil, err
	}

	fleet, err := linksim.NewFleet(linksim.Config{
		Nodes: nodes,
		Policy: mac.PollPolicy{
			MaxRetries: 2, DropAfter: 3,
			Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
		},
		Env:       "river",
		Seed:      opts.Seed + 4200,
		HeroLinks: 2,
	})
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		return nil, err
	}
	fleet.EnableRateAdaptation(rc)
	fleet.SetFaultEngine(eng)
	fleet.SetWorkers(opts.workers())

	t := sim.NewTable(
		fmt.Sprintf("E12: Abstract-tier fleet — %d nodes, %d cycles, scenario %q, hero cross-checks on", nodes, cycles, spec),
		"cycle", "delivered_pct", "retries", "probes", "live", "quar",
		"dropped", "snr_db", "chips", "severity", "hero_div")
	res := &Result{ID: "E12", Title: "Abstract-tier fleet campaign", Kind: "table", Table: t,
		Metrics: map[string]float64{}}

	var polled, delivered, heroChecks, heroDiverged int
	for c := 0; c < cycles; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			return nil, err
		}
		polled += rep.Polled
		delivered += rep.Delivered
		heroChecks += rep.Hero.Checks
		heroDiverged += rep.Hero.Diverged
		t.AddRowf(rep.Cycle, 100*float64(rep.Delivered)/float64(rep.Polled),
			rep.Retries, rep.Probes, rep.Live, rep.Quarantined, rep.Dropped,
			rep.MeanSNRdB, rep.ChipRate, rep.Severity, rep.Hero.Diverged)
	}

	res.Metrics["delivery_ratio"] = float64(delivered) / float64(polled)
	res.Metrics["hero_checks"] = float64(heroChecks)
	res.Metrics["hero_diverged"] = float64(heroDiverged)
	divFrac := 0.0
	if heroChecks > 0 {
		divFrac = float64(heroDiverged) / float64(heroChecks)
	}
	res.Metrics["hero_divergence_frac"] = divFrac
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d nodes/cycle on the calibrated link model; delivery %.1f%% over %d cycles",
			nodes, 100*res.Metrics["delivery_ratio"], cycles),
		fmt.Sprintf("hero cross-checks: %d waveform promotions, %d outside the divergence budget (%.0f%%; budget in DESIGN.md)",
			heroChecks, heroDiverged, 100*divFrac))
	return res, nil
}
