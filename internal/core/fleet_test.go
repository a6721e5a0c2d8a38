package core

import (
	"testing"

	"vab/internal/mac"
	"vab/internal/ocean"
)

func testFleet(t *testing.T) *Fleet {
	t.Helper()
	env := ocean.CharlesRiver()
	d, err := NewVanAttaDesign(DefaultNodeElements, env, DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(
		SystemConfig{Env: env, Design: d, Range: 1 /* overridden per node */, Seed: 51},
		[]NodePlacement{
			{Addr: 1, Range: 40},
			{Addr: 2, Range: 70, Orientation: 0.4},
			{Addr: 3, Range: 110, Orientation: -0.6},
		},
		mac.DefaultPollPolicy(),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFleetCycleDeliversReadings(t *testing.T) {
	f := testFleet(t)
	f.Deploy(3600)
	var got map[byte]bool
	// A couple of cycles: every node should deliver at least once.
	for cycle := 0; cycle < 3; cycle++ {
		readings, rep, err := f.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Polled == 0 {
			t.Fatal("nothing polled")
		}
		if got == nil {
			got = map[byte]bool{}
		}
		for _, r := range readings {
			got[r.Addr] = true
			if r.Reading.PressureMbar < 1000 || r.Reading.PressureMbar > 2000 {
				t.Errorf("node %d: implausible pressure %v", r.Addr, r.Reading.PressureMbar)
			}
		}
	}
	for _, addr := range []byte{1, 2, 3} {
		if !got[addr] {
			t.Errorf("node %d never delivered across 3 cycles", addr)
		}
	}
}

func TestFleetValidation(t *testing.T) {
	env := ocean.CharlesRiver()
	d, _ := NewVanAttaDesign(4, env, DefaultCarrierHz)
	base := SystemConfig{Env: env, Design: d, Range: 1, Seed: 1}
	if _, err := NewFleet(base, nil, mac.DefaultPollPolicy()); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet(base, []NodePlacement{{Addr: 1, Range: 40}, {Addr: 1, Range: 50}}, mac.DefaultPollPolicy()); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := NewFleet(base, []NodePlacement{{Addr: 1, Range: -4}}, mac.DefaultPollPolicy()); err == nil {
		t.Error("negative range accepted")
	}
	bad := mac.PollPolicy{MaxRetries: -1}
	if _, err := NewFleet(base, []NodePlacement{{Addr: 1, Range: 40}}, bad); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestFleetSystemAccess(t *testing.T) {
	f := testFleet(t)
	if f.System(2) == nil {
		t.Error("known node missing")
	}
	if f.System(99) != nil {
		t.Error("unknown node returned a system")
	}
	if len(f.Nodes()) != 3 {
		t.Errorf("node states %d", len(f.Nodes()))
	}
}
