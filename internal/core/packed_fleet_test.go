package core

import (
	"reflect"
	"testing"

	"vab/internal/mac"
	"vab/internal/node"
	"vab/internal/ocean"
)

// packedFleet builds a small waveform fleet whose nodes carry batch
// readings per response frame.
func packedFleet(t *testing.T, batch int, workers int) *Fleet {
	t.Helper()
	env := ocean.CharlesRiver()
	d, err := NewVanAttaDesign(DefaultNodeElements, env, DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(
		SystemConfig{Env: env, Design: d, Range: 1, Seed: 51, SensorBatch: batch},
		[]NodePlacement{
			{Addr: 1, Range: 40},
			{Addr: 2, Range: 70, Orientation: 0.4},
		},
		mac.DefaultPollPolicy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	f.SetWorkers(workers)
	f.Deploy(3600)
	return f
}

func TestPackedFleetDeliversBatches(t *testing.T) {
	const batch = 4
	f := packedFleet(t, batch, 1)
	perNode := map[byte]int{}
	var frames int
	for cycle := 0; cycle < 3; cycle++ {
		readings, rep, err := f.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		frames += rep.Delivered
		// Delivered frames must expand to exactly batch readings each.
		if len(readings) != batch*rep.Delivered {
			t.Fatalf("cycle %d: %d readings from %d frames, want %d per frame",
				cycle, len(readings), rep.Delivered, batch)
		}
		for _, r := range readings {
			perNode[r.Addr]++
			if r.Reading.PressureMbar < 1000 || r.Reading.PressureMbar > 2000 {
				t.Errorf("node %d: implausible pressure %v", r.Addr, r.Reading.PressureMbar)
			}
		}
	}
	if frames == 0 {
		t.Fatal("no frames delivered in 3 cycles")
	}
	for addr, n := range perNode {
		if n%batch != 0 {
			t.Errorf("node %d delivered %d readings, not a multiple of batch %d", addr, n, batch)
		}
	}
}

func TestPackedFleetReadingCountsMonotone(t *testing.T) {
	// The packed sensor draws from the same sample stream as the v1
	// sensor, so each node's reading counts must be consecutive across
	// frames — batching must not skip or duplicate measurements.
	f := packedFleet(t, node.MaxPackedBatch, 1)
	counts := map[byte][]uint32{}
	for cycle := 0; cycle < 3; cycle++ {
		readings, _, err := f.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range readings {
			counts[r.Addr] = append(counts[r.Addr], r.Reading.Count)
		}
	}
	for addr, cs := range counts {
		for i := 1; i < len(cs); i++ {
			// Within one node's stream, consecutive delivered readings from
			// the same frame differ by exactly 1; across a frame gap (lost
			// frame) the count still increases.
			if cs[i] <= cs[i-1] {
				t.Errorf("node %d: counts not increasing at %d: %v", addr, i, cs)
				break
			}
		}
	}
}

func TestPackedFleetDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []FleetReading {
		f := packedFleet(t, 4, workers)
		var all []FleetReading
		for cycle := 0; cycle < 2; cycle++ {
			readings, _, err := f.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, readings...)
		}
		return all
	}
	serial := run(1)
	wide := run(4)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("packed cycle output differs across worker counts:\n serial %+v\n wide   %+v", serial, wide)
	}
	if len(serial) == 0 {
		t.Fatal("no readings delivered")
	}
}
