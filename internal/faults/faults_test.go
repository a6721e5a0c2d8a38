package faults

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func chaosScenario(seed int64) Scenario {
	sc, err := Parse("chaos", seed)
	if err != nil {
		panic(err)
	}
	return sc
}

// Same seed → byte-identical plans, regardless of evaluation order or
// history: the property every downstream reproducibility guarantee rests
// on.
func TestPlanDeterministic(t *testing.T) {
	e1, err := NewEngine(chaosScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := NewEngine(chaosScenario(42))

	// e1 forward, e2 backward: identical plans per round.
	const rounds = 200
	fwd := make([]RoundPlan, rounds)
	for r := 0; r < rounds; r++ {
		fwd[r] = e1.Plan(r)
	}
	for r := rounds - 1; r >= 0; r-- {
		if got := e2.Plan(r); !reflect.DeepEqual(got, fwd[r]) {
			t.Fatalf("round %d: order-dependent plan:\n fwd: %+v\n rev: %+v", r, fwd[r], got)
		}
	}
}

// A different seed must actually change the draws.
func TestPlanSeedSensitive(t *testing.T) {
	e1, _ := NewEngine(chaosScenario(1))
	e2, _ := NewEngine(chaosScenario(2))
	same := 0
	for r := 0; r < 100; r++ {
		if reflect.DeepEqual(e1.Plan(r), e2.Plan(r)) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("seeds 1 and 2 produced identical 100-round schedules")
	}
}

// One engine may serve concurrent systems: Plan must be safe and pure
// under parallel evaluation (run with -race).
func TestPlanConcurrent(t *testing.T) {
	e, _ := NewEngine(chaosScenario(7))
	want := make([]RoundPlan, 64)
	for r := range want {
		want[r] = e.Plan(r)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 64; r++ {
				if got := e.Plan(r); !reflect.DeepEqual(got, want[r]) {
					t.Errorf("round %d: concurrent plan diverged", r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNilEnginePlansNothing(t *testing.T) {
	var e *Engine
	if p := e.Plan(3); !p.Empty() {
		t.Fatalf("nil engine planned %+v", p)
	}
}

// Element failures must pick the same dead elements for the whole
// run — flooded transducers do not resurrect round to round.
func TestElementFailStableWithinWindow(t *testing.T) {
	sc := Scenario{Name: "el", Seed: 11, Faults: []Fault{
		{Type: ElementFailure, Intensity: 1, DeadFrac: 0.5},
	}}
	e, _ := NewEngine(sc)
	first := e.Plan(0)
	if first.DeadFrac != 0.5 {
		t.Fatalf("DeadFrac = %g, want 0.5", first.DeadFrac)
	}
	pick := PickElements(16, 8, first.FailSeed)
	for r := 1; r < 50; r++ {
		p := e.Plan(r)
		if p.FailSeed != first.FailSeed || p.DeadFrac != first.DeadFrac {
			t.Fatalf("round %d: element fault drifted within its window", r)
		}
		if got := PickElements(16, 8, p.FailSeed); !reflect.DeepEqual(got, pick) {
			t.Fatalf("round %d: dead-element pick changed", r)
		}
	}
}

func TestPickElements(t *testing.T) {
	got := PickElements(16, 4, 99)
	if len(got) != 4 {
		t.Fatalf("picked %d elements, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 16 {
			t.Fatalf("element %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("element %d picked twice", i)
		}
		seen[i] = true
	}
	if n := len(PickElements(4, 10, 1)); n != 4 {
		t.Fatalf("over-asking picked %d, want clamp to 4", n)
	}
	if PickElements(4, 0, 1) != nil || PickElements(0, 3, 1) != nil {
		t.Fatal("degenerate picks should be nil")
	}
}

func TestParse(t *testing.T) {
	sc, err := Parse("shrimp:0.5+brownout", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 2 {
		t.Fatalf("parsed %d faults, want 2", len(sc.Faults))
	}
	if sc.Faults[0].Type != Impulse || sc.Faults[0].Intensity != 0.5 {
		t.Fatalf("first fault = %+v", sc.Faults[0])
	}
	if sc.Faults[1].Type != Brownout || sc.Faults[1].Intensity != 1 {
		t.Fatalf("second fault = %+v", sc.Faults[1])
	}

	if sc, _ := Parse("chaos", 1); len(sc.Faults) != len(chaosComponents) {
		t.Fatalf("chaos expanded to %d faults, want %d", len(sc.Faults), len(chaosComponents))
	}
	if sc, _ := Parse("", 1); len(sc.Faults) != 0 || sc.Name != "none" {
		t.Fatalf("empty spec = %+v", sc)
	}

	for _, bad := range []string{"krakens", "shrimp:1.5", "shrimp:x", ":0.5", "+"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

func TestScale(t *testing.T) {
	sc := chaosScenario(1)
	half := sc.Scale(0.5)
	for i := range half.Faults {
		want := sc.Faults[i].Intensity * 0.5
		if math.Abs(half.Faults[i].Intensity-want) > 1e-12 {
			t.Fatalf("fault %d intensity %g, want %g", i, half.Faults[i].Intensity, want)
		}
	}
	zero := sc.Scale(0)
	e, _ := NewEngine(zero)
	for r := 0; r < 20; r++ {
		if p := e.Plan(r); !p.Empty() {
			t.Fatalf("zero-scaled scenario planned %+v", p)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Scenario{
		{Faults: []Fault{{Type: Type(99)}}},
		{Faults: []Fault{{Type: Impulse, Intensity: 2}}},
		{Faults: []Fault{{Type: ElementFailure, Intensity: 1, DeadFrac: 1.5}}},
		{Faults: []Fault{{Type: Brownout, Intensity: 1, OutageProb: -0.1}}},
	}
	for i, sc := range bad {
		if _, err := NewEngine(sc); err == nil {
			t.Errorf("scenario %d accepted, want error", i)
		}
	}
}

func TestPresetsListing(t *testing.T) {
	lines := Presets()
	if len(lines) != len(presets)+1 {
		t.Fatalf("Presets() returned %d lines, want %d", len(lines), len(presets)+1)
	}
	joined := strings.Join(lines, "\n")
	for _, name := range append([]string{"chaos"}, chaosComponents...) {
		if !strings.Contains(joined, name) {
			t.Errorf("Presets() missing %q", name)
		}
	}
}

// The impulse intensity knob must actually move the burst statistics.
func TestImpulseIntensityScales(t *testing.T) {
	count := func(intensity float64) int {
		sc := Scenario{Name: "i", Seed: 9, Faults: []Fault{
			{Type: Impulse, Intensity: intensity, RatePerRound: 6, PowerDB: 30, BurstLenSec: 0.02},
		}}
		e, _ := NewEngine(sc)
		n := 0
		for r := 0; r < 300; r++ {
			n += len(e.Plan(r).Bursts)
		}
		return n
	}
	lo, hi := count(0.25), count(1)
	if lo == 0 || hi == 0 {
		t.Fatalf("no bursts drawn (lo=%d hi=%d)", lo, hi)
	}
	if hi <= lo {
		t.Fatalf("intensity 1 drew %d bursts, not more than %d at 0.25", hi, lo)
	}
}
