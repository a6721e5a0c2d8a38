package linksim

import (
	"slices"
	"testing"

	"vab/internal/mac"
	"vab/internal/telemetry"
)

// TestHeroChecksRunAndStayInBudget: with the committed calibration table
// and links placed on calibrated grid points, the hero cross-check — real
// waveform systems replaying the model's scheduled polls — records checks
// every cycle, exports them through telemetry, and stays inside the
// divergence budget DESIGN.md documents. This is the online validity
// monitor's own validity test.
func TestHeroChecksRunAndStayInBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform hero rounds")
	}
	fleet, err := NewFleet(Config{
		Placements: []Placement{
			{RangeM: 50}, {RangeM: 100}, {RangeM: 50}, {RangeM: 100},
		},
		Policy:    mac.DefaultPollPolicy(),
		Seed:      21,
		HeroLinks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	fleet.Instrument(reg)

	const cycles = 3
	checks, diverged := 0, 0
	for c := 0; c < cycles; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hero.Checks != 2 {
			t.Fatalf("cycle %d: %d hero checks, want 2", c, rep.Hero.Checks)
		}
		checks += rep.Hero.Checks
		diverged += rep.Hero.Diverged
	}

	// The budget from DESIGN.md ("Fidelity tiers"): on calibrated grid
	// points the campaign divergence fraction stays ≤ 0.2. Individual
	// checks may trip — the waveform SNR estimator is heavy-tailed and a
	// few-round hero mean occasionally lands past 3 standard errors —
	// which is exactly why divergence is a monitored counter, not a
	// hard failure inside the tier.
	if frac := float64(diverged) / float64(checks); frac > 0.2 {
		t.Fatalf("%d/%d hero checks diverged on calibrated grid points (budget 0.2)", diverged, checks)
	}

	var sawChecks, sawHist bool
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "vab_linksim_hero_checks_total":
			sawChecks = true
			if int(s.Value) != checks {
				t.Fatalf("telemetry counts %d checks, reports said %d", int(s.Value), checks)
			}
		case "vab_linksim_hero_snr_z":
			sawHist = true
			if s.Count == 0 {
				t.Fatal("z-score histogram empty despite delivered hero rounds")
			}
		}
	}
	if !sawChecks || !sawHist {
		t.Fatal("hero metrics not registered")
	}
}

// TestHeroPickDeterministic: promotion is a pure function of (seed, cycle)
// — same fleet state, same picks — and skips due probes.
func TestHeroPickDeterministic(t *testing.T) {
	fleet, err := NewFleet(Config{
		Nodes:     32,
		Policy:    mac.DefaultPollPolicy(),
		Table:     hardTable(),
		Seed:      13,
		HeroLinks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule: every fourth node a due probe, the rest live.
	var sched mac.Schedule
	for i := int32(0); i < 32; i++ {
		if i%4 == 0 {
			sched.Due = append(sched.Due, i)
		} else {
			sched.Live = append(sched.Live, i)
		}
	}
	fleet.hero.pick(fleet, sched, 5)
	a := slices.Clone(fleet.hero.picked)
	fleet.hero.pick(fleet, sched, 5)
	b := fleet.hero.picked
	if len(a) != 3 {
		t.Fatalf("picked %d links, want 3", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("picks not deterministic: %v vs %v", a, b)
		}
		if a[i]%4 == 0 {
			t.Fatalf("picked a probe item: %v", a)
		}
	}
	fleet.hero.pick(fleet, sched, 6)
	c := fleet.hero.picked
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("cycle is not in the pick stream: cycles 5 and 6 picked identically")
	}
}
