package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/ocean"
)

// chaosFleet16 builds the determinism fixture: a 16-node river fleet with
// the full recovery stack (probation, rate adaptation) and a chaos fault
// engine — every subsystem whose ordering a parallel cycle could
// plausibly perturb.
func chaosFleet16(t *testing.T, workers int) *Fleet {
	t.Helper()
	env := ocean.CharlesRiver()
	d, err := NewVanAttaDesign(DefaultNodeElements, env, DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	placements := make([]NodePlacement, 16)
	for i := range placements {
		placements[i] = NodePlacement{
			Addr:        byte(i + 1),
			Range:       40 + 12*float64(i), // 40 m … 220 m: the far tail fails and retries
			Orientation: 0.25 * float64(i%5),
		}
	}
	f, err := NewFleet(
		SystemConfig{Env: env, Design: d, Range: 1, Seed: 4242},
		placements,
		mac.PollPolicy{
			MaxRetries: 2, DropAfter: 3,
			Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		t.Fatal(err)
	}
	f.EnableRateAdaptation(rc)
	eng, err := faults.NewEngine(mustScenario(t, "chaos", 4242).Scale(0.5))
	if err != nil {
		t.Fatal(err)
	}
	f.SetFaultEngine(eng)
	f.SetWorkers(workers)
	f.Deploy(3600)
	return f
}

func mustScenario(t *testing.T, spec string, seed int64) faults.Scenario {
	t.Helper()
	sc, err := faults.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// hexF serializes a float with full bit fidelity — %v or %g rounding could
// mask a divergence in the low mantissa bits.
func hexF(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// cycleSignature runs cycles polling cycles and serializes everything a
// caller can observe: readings, reports, each cycle's delivered payloads
// in address order, final node states and the link-quality accumulators.
func cycleSignature(t *testing.T, f *Fleet, cycles int) string {
	t.Helper()
	var b strings.Builder
	for c := 0; c < cycles; c++ {
		readings, rep, err := f.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "cycle %d: polled=%d delivered=%d retries=%d probes=%d\n",
			c, rep.Polled, rep.Delivered, rep.Retries, rep.Probes)
		for i, p := range f.payloads {
			if p != nil {
				fmt.Fprintf(&b, "  payload %d: %x\n", f.cols.Stats.Addr[i], p)
			}
		}
		for _, r := range readings {
			fmt.Fprintf(&b, "  reading %d: count=%d temp=%s pressure=%s snr=%s\n",
				r.Addr, r.Reading.Count, hexF(r.Reading.TempC),
				hexF(r.Reading.PressureMbar), hexF(r.SNRdB))
		}
	}
	for i, st := range f.Nodes() {
		fmt.Fprintf(&b, "node %d: polls=%d succ=%d silent=%d quar=%v(%d) dropped=%v snr=%s\n",
			st.Addr, st.Polls, st.Successes, f.cols.SilentCycles[i],
			st.Quarantined, st.QuarantineEntries, st.Dropped, hexF(f.cols.Stats.LastSNRdB[i]))
	}
	frames, corrected := f.LinkQuality()
	fmt.Fprintf(&b, "link: frames=%d corrected=%d\n", frames, corrected)
	return b.String()
}

// TestFleetCycleDeterministicAcrossWorkers is the fleet-level determinism
// contract (and, under -race, the data-race proof for concurrent polls):
// seeded 16-node cycles with a fault engine attached and rate adaptation
// enabled produce byte-identical reports and readings at workers 1 and 8.
func TestFleetCycleDeterministicAcrossWorkers(t *testing.T) {
	const cycles = 5
	serial := cycleSignature(t, chaosFleet16(t, 1), cycles)
	parallel := cycleSignature(t, chaosFleet16(t, 8), cycles)
	if serial != parallel {
		t.Fatalf("fleet cycles diverge across workers 1 vs 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "delivered=") || strings.Count(serial, "reading") == 0 {
		t.Fatal("signature captured no readings — fixture too hostile to mean anything")
	}
}

// TestFleetCycleSteadyStateAllocs pins the per-cycle allocation budget so
// future changes cannot quietly re-grow it. The bound covers the whole
// cycle: scheduling, three waveform rounds, MAC bookkeeping and reading
// decode.
func TestFleetCycleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool (dsp scratch) drops items under the race detector")
	}
	f := testFleet(t)
	f.Deploy(3600)
	for i := 0; i < 3; i++ { // reach steady state: plans cached, scratch grown
		if _, _, err := f.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, _, err := f.RunCycle(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fleet cycle (3 nodes): %.1f allocs/cycle", avg)
	const maxAllocs = 170 // measured ~154: ~45/node round + cycle assembly, small headroom
	if avg > maxAllocs {
		t.Errorf("steady-state fleet cycle allocates %.1f/cycle, budget %d", avg, maxAllocs)
	}
}
