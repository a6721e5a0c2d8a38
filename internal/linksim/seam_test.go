package linksim

import (
	"math"
	"testing"

	"vab/internal/core"
	"vab/internal/mac"
)

// TestFleetTierSeam compares the two backends of mac.Scheduler at fleet
// scale: a 32-node abstract fleet at seeded river placements and a
// waveform core.Fleet at the same ranges and orientations. With no retries,
// no drops, no faults and no rate controller, every cycle polls every node
// once at the table's calibrated chip rate — the quantity the cells
// calibrate — so the pooled delivered fractions must agree within the
// two-proportion |z| ≤ 3 that Equivalent applies to a pooled shift.
func TestFleetTierSeam(t *testing.T) {
	if testing.Short() {
		t.Skip("640 waveform rounds")
	}
	const nodes, cycles = 32, 20
	policy := mac.PollPolicy{MaxRetries: 0, DropAfter: 0}
	abstract, err := NewFleet(Config{Nodes: nodes, Policy: policy, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	defer abstract.Close()

	env, err := EnvByName("river")
	if err != nil {
		t.Fatal(err)
	}
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	placements := make([]core.NodePlacement, nodes)
	for i := range placements {
		r, o := abstract.placement(int32(i))
		placements[i] = core.NodePlacement{Addr: byte(i + 1), Range: r, Orientation: o}
	}
	wave, err := core.NewFleet(core.SystemConfig{Env: env, Design: design, Range: 1, Seed: 61}, placements, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer wave.Close()
	wave.SetWorkers(0)
	wave.Deploy(3600) // the calibrator's soak
	if got, want := wave.System(1).ChipRate(), abstract.table.ChipRate; got != want {
		t.Fatalf("waveform chip rate %v, table calibrated at %v", got, want)
	}

	var dAbs, dWave int
	for c := 0; c < cycles; c++ {
		arep, err := abstract.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		_, wrep, err := wave.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if arep.Polled != nodes || wrep.Polled != nodes {
			t.Fatalf("cycle %d polled %d abstract, %d waveform; want %d each", c, arep.Polled, wrep.Polled, nodes)
		}
		t.Logf("cycle %2d: delivered abstract %2d/%d, waveform %2d/%d", c, arep.Delivered, nodes, wrep.Delivered, nodes)
		dAbs += arep.Delivered
		dWave += wrep.Delivered
	}
	n := float64(nodes * cycles)
	pa, pw := float64(dAbs)/n, float64(dWave)/n
	pool := (pa + pw) / 2
	z := 0.0
	if v := pool * (1 - pool) * 2 / n; v > 0 {
		z = (pw - pa) / math.Sqrt(v)
	}
	t.Logf("pooled delivery: abstract %.3f, waveform %.3f, z %.2f", pa, pw, z)
	if math.Abs(z) > pooledLimit {
		t.Fatalf("tiers disagree on pooled delivery: abstract %.3f, waveform %.3f, |z| %.2f > %v", pa, pw, math.Abs(z), pooledLimit)
	}
}
