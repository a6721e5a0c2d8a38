package experiments

import (
	"fmt"

	"vab/internal/core"
	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/ocean"
	"vab/internal/reader"
	"vab/internal/sim"
	"vab/internal/workpool"
)

// chaosIntensities is the fault-intensity sweep E11 traces degradation
// curves over.
var chaosIntensities = []float64{0, 0.25, 0.5, 0.75, 1}

// chaosCell is one (intensity × recovery arm) campaign cell outcome.
type chaosCell struct {
	intensity float64
	recovery  bool

	nodes       int
	cycles      int
	delivered   int
	probes      int
	quarantines int
	restored    int
	liveNodes   int
	frames      int64
	corrected   int64
}

// runChaosCell runs one cell: a four-node river fleet polled for cycles
// cycles under the scaled scenario, with the recovery stack (reader
// reacquisition, MAC probation, rate stepdown) on or off. Every cell
// builds its own design — element faults mutate the array, so sharing one
// across concurrent cells would race (and NewFleet additionally clones it
// per node). workers widens the fleet's per-cycle poll pool; cell output
// is bit-identical at any width.
func runChaosCell(sc faults.Scenario, intensity float64, recovery bool,
	cycles int, seed int64, workers int) (chaosCell, error) {

	cell := chaosCell{intensity: intensity, recovery: recovery, nodes: 4, cycles: cycles}
	env := ocean.CharlesRiver()
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		return cell, err
	}
	base := core.SystemConfig{Env: env, Design: design, Range: 1, Seed: seed}
	policy := mac.PollPolicy{MaxRetries: 2, DropAfter: 3}
	if recovery {
		policy.Probation = true
		policy.ProbeBackoffBase = 2
		policy.ProbeBackoffMax = 8
		base.Reader = reader.DefaultConfig()
		base.Reader.Reacquire = true
	}
	fleet, err := core.NewFleet(base, []core.NodePlacement{
		{Addr: 1, Range: 40},
		{Addr: 2, Range: 70, Orientation: 0.4},
		{Addr: 3, Range: 100, Orientation: -0.6},
		{Addr: 4, Range: 130, Orientation: 0.9},
	}, policy)
	if err != nil {
		return cell, err
	}
	defer fleet.Close()
	if recovery {
		rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
		if err != nil {
			return cell, err
		}
		fleet.EnableRateAdaptation(rc)
	}
	eng, err := faults.NewEngine(sc.Scale(intensity))
	if err != nil {
		return cell, err
	}
	fleet.SetFaultEngine(eng)
	fleet.SetWorkers(workers)
	fleet.Deploy(3600)

	for c := 0; c < cycles; c++ {
		_, rep, err := fleet.RunCycle()
		if err != nil {
			return cell, err
		}
		cell.delivered += rep.Delivered
		cell.probes += rep.Probes
	}
	for _, st := range fleet.Nodes() {
		cell.quarantines += st.QuarantineEntries
		if !st.Dropped && !st.Quarantined {
			cell.liveNodes++
		}
		if st.QuarantineEntries > 0 && !st.Quarantined {
			cell.restored++
		}
	}
	cell.frames, cell.corrected = fleet.LinkQuality()
	return cell, nil
}

// deliveryRatio returns delivered readings over desired readings (one per
// node per cycle). Dividing by polls instead would flatter a schedule that
// permanently dropped its nodes — a dropped node is never polled, yet its
// readings are exactly what the deployment lost.
func (c *chaosCell) deliveryRatio() float64 {
	want := c.nodes * c.cycles
	if want == 0 {
		return 0
	}
	return float64(c.delivered) / float64(want)
}

// correctedPerFrame is the residual-BER proxy: FEC corrections per
// delivered frame (delivered traffic closer to the FEC cliff corrects
// more).
func (c *chaosCell) correctedPerFrame() float64 {
	if c.frames == 0 {
		return 0
	}
	return float64(c.corrected) / float64(c.frames)
}

// E11Chaos runs the chaos campaign: delivery ratio and link quality versus
// fault intensity, with the recovery stack off and on. The scenario comes
// from Options.Faults (default "chaos": every fault class layered). E11 is
// opt-in — it is not part of IDs()/RunAll, so seeded `-exp all` transcripts
// are unchanged by its existence; run it with `-exp e11`.
//
// Fixed (Seed, Trials, Faults) make the run fully deterministic: every
// fleet, engine and cell seed derives from Options.Seed, so two invocations
// are byte-identical — the property the chaos-soak CI leg checks.
func E11Chaos(opts Options) (*Result, error) {
	spec := opts.Faults
	if spec == "" {
		spec = "chaos"
	}
	sc, err := faults.Parse(spec, opts.Seed+9001)
	if err != nil {
		return nil, err
	}
	cycles := opts.trials(30)

	type job struct {
		intensity float64
		recovery  bool
		seed      int64
	}
	var jobs []job
	for i, in := range chaosIntensities {
		for _, rec := range []bool{false, true} {
			// Both arms of one intensity share a fleet seed: same channels,
			// same fault draws, only the recovery stack differs.
			jobs = append(jobs, job{in, rec, opts.Seed + 1700 + int64(i)*37})
		}
	}
	cells := make([]chaosCell, len(jobs))
	fleetWorkers := opts.workers() // per-cell fleet poll-pool width
	err = workpool.Run(len(jobs), fleetWorkers, "e11_cell", func(i int) error {
		j := jobs[i]
		c, err := runChaosCell(sc, j.intensity, j.recovery, cycles, j.seed, fleetWorkers)
		if err != nil {
			return fmt.Errorf("chaos cell %d: %w", i, err)
		}
		cells[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := sim.NewTable(fmt.Sprintf("E11: Chaos campaign — scenario %q, %d cycles/cell, recovery off vs on", spec, cycles),
		"intensity", "recovery", "delivery_pct", "corrected_per_frame",
		"quarantines", "probes", "restored", "live_nodes")
	res := &Result{ID: "E11", Title: "Chaos campaign", Kind: "table", Table: t,
		Metrics: map[string]float64{}}

	var sumOff, sumOn float64
	var faulted int
	for _, c := range cells {
		arm := "off"
		if c.recovery {
			arm = "on"
		}
		t.AddRowf(c.intensity, arm, 100*c.deliveryRatio(), c.correctedPerFrame(),
			c.quarantines, c.probes, c.restored, c.liveNodes)
		res.Metrics[fmt.Sprintf("delivery_%s_%.2f", arm, c.intensity)] = c.deliveryRatio()
		if c.intensity > 0 {
			if c.recovery {
				sumOn += c.deliveryRatio()
			} else {
				sumOff += c.deliveryRatio()
			}
			faulted++
		}
	}
	n := float64(faulted) / 2
	res.Metrics["mean_faulted_delivery_off"] = sumOff / n
	res.Metrics["mean_faulted_delivery_on"] = sumOn / n
	res.Metrics["recovery_gain"] = (sumOn - sumOff) / n
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean delivery under faults: %.0f%% without recovery, %.0f%% with (gain %+.0f pts)",
			100*res.Metrics["mean_faulted_delivery_off"],
			100*res.Metrics["mean_faulted_delivery_on"],
			100*res.Metrics["recovery_gain"]),
		"recovery stack: reader burst reacquisition + MAC probation (quarantine & backed-off re-probes) + SNR-triggered rate stepdown")
	return res, nil
}
