package faults

import "testing"

func TestModelSeverityEmptyPlan(t *testing.T) {
	if s := ModelSeverity(RoundPlan{}); s != 0 {
		t.Fatalf("empty plan severity = %g, want 0", s)
	}
}

func TestModelSeverityFullChaosPlan(t *testing.T) {
	// The canonical full-intensity composite: every class at its preset
	// maximum. Must map to exactly 1.
	p := RoundPlan{
		ShadowDB:      6,
		DeadFrac:      0.5,
		ClockPPMDelta: 1250,
		Brownout:      true,
		Bursts:        make([]Burst, 6),
	}
	if s := ModelSeverity(p); s != 1 {
		t.Fatalf("full composite severity = %g, want 1", s)
	}
	// Over-canonical values clamp per class, keeping the total in [0, 1].
	p.ShadowDB = 40
	p.Bursts = make([]Burst, 50)
	if s := ModelSeverity(p); s != 1 {
		t.Fatalf("over-full severity = %g, want 1 (clamped)", s)
	}
}

func TestModelSeverityMonotoneInShadow(t *testing.T) {
	prev := -1.0
	for db := 0.0; db <= 6; db += 0.5 {
		s := ModelSeverity(RoundPlan{ShadowDB: db})
		if s < prev {
			t.Fatalf("severity not monotone in shadow: %g dB → %g after %g", db, s, prev)
		}
		if s < 0 || s > 1 {
			t.Fatalf("severity %g outside [0, 1]", s)
		}
		prev = s
	}
}

// TestMeanModelSeverityTracksScenarioIntensity checks the round trip the
// abstract tier depends on: scaling a scenario's intensity moves the mean
// mapped severity in the same direction.
func TestMeanModelSeverityTracksScenarioIntensity(t *testing.T) {
	sc, err := Parse("chaos", 42)
	if err != nil {
		t.Fatal(err)
	}
	mean := func(intensity float64) float64 {
		eng, err := NewEngine(sc.Scale(intensity))
		if err != nil {
			t.Fatal(err)
		}
		return meanModelSeverity(eng, 0, 200)
	}
	lo, mid, hi := mean(0.25), mean(0.5), mean(1)
	if !(lo < mid && mid < hi) {
		t.Fatalf("mean severity not increasing in scenario intensity: %.3f, %.3f, %.3f", lo, mid, hi)
	}
	if hi <= 0.2 || hi > 1 {
		t.Fatalf("full chaos mean severity %.3f implausible", hi)
	}
	var eng *Engine
	if s := meanModelSeverity(eng, 0, 10); s != 0 {
		t.Fatalf("nil engine severity = %g, want 0", s)
	}
}

// meanModelSeverity averages ModelSeverity over the engine's plans for
// rounds [start, start+n): a per-cycle severity estimate for a cycle that
// spans several waveform rounds. A nil engine or non-positive n maps to 0.
func meanModelSeverity(e *Engine, start, n int) float64 {
	if e == nil || n <= 0 {
		return 0
	}
	var sum float64
	for r := start; r < start+n; r++ {
		sum += ModelSeverity(e.Plan(r))
	}
	return sum / float64(n)
}
