package benchmark

import (
	"fmt"
	"runtime"
	"time"

	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/telemetry"
)

var fleetWorkload = &Workload{
	name:   "fleet_1m",
	why:    "the abstract tier at its headline scale, 10^6 nodes: resolved-cell cache, SoA fold and probe wheel, with no waveform or gateway work",
	minOps: 100,
	tail:   0.90,
	setup:  setupFleet,
}

// fleetWarmCycles is how many cycles setup runs before measuring: the
// first cycles of a fresh fleet cost up to five times the steady state
// (cache population, the first wave of drops), and a fixed warm-up keeps
// every commit measuring the same window of the fleet's life.
const fleetWarmCycles = 10

type fleetRunner struct {
	o     *Options
	fleet *linksim.Fleet
	nodes int
}

func fleetNodes(o *Options) int {
	if o.Small {
		return 20_000
	}
	return 1_000_000
}

func newWarmFleet(nodes int, seed int64, workers, warm int) (*linksim.Fleet, error) {
	f, err := linksim.NewFleet(linksim.Config{Nodes: nodes, Policy: mac.DefaultPollPolicy(), Seed: seed})
	if err != nil {
		return nil, err
	}
	f.SetWorkers(workers)
	for i := 0; i < warm; i++ {
		if _, err := f.RunCycle(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

func setupFleet(o *Options) (runner, error) {
	nodes := fleetNodes(o)
	f, err := newWarmFleet(nodes, o.Seed, runtime.NumCPU(), fleetWarmCycles)
	if err != nil {
		return nil, err
	}
	return &fleetRunner{o: o, fleet: f, nodes: nodes}, nil
}

// verify checks worker-count determinism: a tenth-size fleet with the same
// seed must produce identical cycle reports at one worker and at nproc.
func (r *fleetRunner) verify() error {
	n := r.nodes / 10
	reports := func(workers int) ([]linksim.CycleReport, error) {
		f, err := newWarmFleet(n, r.o.Seed, workers, 0)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var out []linksim.CycleReport
		for i := 0; i < 10; i++ {
			rep, err := f.RunCycle()
			if err != nil {
				return nil, err
			}
			out = append(out, rep)
		}
		return out, nil
	}
	serial, err := reports(1)
	if err != nil {
		return err
	}
	pooled, err := reports(max(2, runtime.NumCPU()))
	if err != nil {
		return err
	}
	for i := range serial {
		if serial[i] != pooled[i] {
			return fmt.Errorf("cycle %d of a %d-node fleet differs between 1 and %d workers", i, n, max(2, runtime.NumCPU()))
		}
	}
	return nil
}

func (r *fleetRunner) instrument(reg *telemetry.Registry) { r.fleet.Instrument(reg) }

func (r *fleetRunner) measure(d time.Duration, minOps int, tr *Tracer) (phase, error) {
	var ph phase
	buf := tr.Buffer()
	start := time.Now()
	for time.Since(start) < d || len(ph.opMs) < minOps {
		t0 := time.Now()
		trace := uint64(len(ph.opMs) + 1)
		root := buf.Start("bench.cycle", trace, 0)
		sp := buf.Start("linksim.RunCycle", trace, root.ID())
		rep, err := r.fleet.RunCycle()
		sp.End()
		root.End()
		ph.opMs = append(ph.opMs, float64(time.Since(t0))/1e6)
		if err != nil {
			return ph, err
		}
		ph.attempted++
		ph.items += int64(rep.Polled)
		if rep.Live+rep.Quarantined+rep.Dropped != r.nodes || rep.Delivered > rep.Polled {
			ph.failed++
			ph.problems = append(ph.problems, fmt.Sprintf("cycle %d: live %d + quarantined %d + dropped %d != %d nodes, or delivered %d > polled %d",
				rep.Cycle, rep.Live, rep.Quarantined, rep.Dropped, r.nodes, rep.Delivered, rep.Polled))
		}
	}
	return ph, nil
}

func (r *fleetRunner) close() { r.fleet.Close() }
