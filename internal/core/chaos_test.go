package core

import (
	"fmt"
	"math/cmplx"
	"sync"
	"testing"
	"time"

	"vab/internal/faults"
)

// roundSignature flattens the observable outcome of one round for
// bit-identity comparisons.
func roundSignature(rep RoundReport) string {
	var payload []byte
	if rep.Rx.OK() {
		payload = rep.Rx.Frame.Payload
	}
	return fmt.Sprintf("%v|%v|%v|%v|%d|%.9f|%x",
		rep.QueryOK, rep.NodeSilent, rep.PayloadOK, rep.Rx.OK(),
		rep.Rx.Corrected, rep.Rx.AcqMetric, payload)
}

func runRounds(t *testing.T, s *System, n int) []string {
	t.Helper()
	sigs := make([]string, n)
	for i := 0; i < n; i++ {
		s.WakeNode(3600)
		rep, err := s.RunRound()
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		sigs[i] = roundSignature(rep)
	}
	return sigs
}

// TestChaosZeroIntensityIsBaseline: an attached engine whose scenario is
// scaled to zero must leave every round bit-identical to a system that
// never had an engine — the no-fault path touches no RNG stream.
func TestChaosZeroIntensityIsBaseline(t *testing.T) {
	const rounds = 5
	clean := runRounds(t, riverSystem(t, 45, 21), rounds)

	sc, err := faults.Parse("chaos", 77)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(sc.Scale(0))
	if err != nil {
		t.Fatal(err)
	}
	s := riverSystem(t, 45, 21)
	s.SetFaultEngine(eng)
	zeroed := runRounds(t, s, rounds)

	for i := range clean {
		if clean[i] != zeroed[i] {
			t.Fatalf("round %d diverged under zero-intensity engine:\n clean %s\n zero  %s",
				i, clean[i], zeroed[i])
		}
	}
}

// TestChaosDetachHeals: after chaotic rounds, SetFaultEngine(nil) must
// revert element faults, shadowing and clock steps so the system resumes
// the exact clean trajectory — faults cost rounds, not the system.
func TestChaosDetachHeals(t *testing.T) {
	const pre, post = 3, 3
	clean := runRounds(t, riverSystem(t, 45, 21), pre+post)

	sc, err := faults.Parse("elements+shadowing+clockstep", 5)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	s := riverSystem(t, 45, 21)
	s.SetFaultEngine(eng)
	runRounds(t, s, pre) // chaotic prefix, outcomes irrelevant
	s.SetFaultEngine(nil)

	healed := runRounds(t, s, post)
	for i := range healed {
		if healed[i] != clean[pre+i] {
			t.Fatalf("post-heal round %d diverged from clean round %d:\n clean  %s\n healed %s",
				i, pre+i, clean[pre+i], healed[i])
		}
	}
}

// TestApplyFaultPlanShadowing: a shadowing plan attenuates the effective
// scatter gain by twice the one-way excess (out and back through the
// cloud), and clears when the plan does.
func TestApplyFaultPlanShadowing(t *testing.T) {
	s := riverSystem(t, 45, 3)
	healthy := cmplx.Abs(s.effectiveGain())

	if err := s.applyFaultPlan(&faults.RoundPlan{ShadowDB: 6}); err != nil {
		t.Fatal(err)
	}
	shadowed := cmplx.Abs(s.effectiveGain())
	wantRatio := 1.0 / 3.9810717055349722 // 10^(12/20)
	if ratio := shadowed / healthy; ratio < wantRatio*0.999 || ratio > wantRatio*1.001 {
		t.Fatalf("shadowed/healthy gain = %.6f, want %.6f (12 dB round trip)", ratio, wantRatio)
	}

	if err := s.applyFaultPlan(&faults.RoundPlan{}); err != nil {
		t.Fatal(err)
	}
	if got := cmplx.Abs(s.effectiveGain()); got != healthy {
		t.Fatalf("gain %.9g after shadow cleared, want %.9g", got, healthy)
	}
}

// TestApplyFaultPlanElements: a DeadFrac plan kills the deterministic
// element subset and refreshes the cached gain; healing restores both the
// array and the gain exactly.
func TestApplyFaultPlanElements(t *testing.T) {
	s := riverSystem(t, 45, 3)
	fd := s.cfg.Design.(FaultableDesign)
	healthy := s.nodeGain

	if err := s.applyFaultPlan(&faults.RoundPlan{DeadFrac: 0.5, FailSeed: 99}); err != nil {
		t.Fatal(err)
	}
	if got, want := fd.FaultArray().FailedElements(), fd.FaultArray().N()/2; got != want {
		t.Fatalf("failed elements = %d, want %d", got, want)
	}
	if s.nodeGain == healthy {
		t.Fatal("cached gain not refreshed after element faults")
	}
	faulted := s.nodeGain

	// Same plan again: sticky, no re-pick, gain unchanged.
	if err := s.applyFaultPlan(&faults.RoundPlan{DeadFrac: 0.5, FailSeed: 99}); err != nil {
		t.Fatal(err)
	}
	if s.nodeGain != faulted {
		t.Fatal("re-applying an identical plan changed the gain")
	}

	s.SetFaultEngine(nil)
	if fd.FaultArray().FailedElements() != 0 {
		t.Fatal("detach did not clear element faults")
	}
	if s.nodeGain != healthy {
		t.Fatalf("healed gain %v, want %v", s.nodeGain, healthy)
	}
}

// TestApplyFaultPlanBrownout: a brownout plan forces the node into sleep;
// the next round sees it silent.
func TestApplyFaultPlanBrownout(t *testing.T) {
	s := riverSystem(t, 45, 3)
	s.WakeNode(3600)
	if err := s.applyFaultPlan(&faults.RoundPlan{Brownout: true}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.NodeSilent {
		t.Fatalf("browned-out node answered: %+v", rep)
	}
}

// TestApplyFaultPlanClockStep: the clock delta lands on top of the nominal
// ppm and heals on detach. The system's record of the step is set only
// once node.SetClockPPM accepted it; node's own tests pin that the node
// then runs at that clock.
func TestApplyFaultPlanClockStep(t *testing.T) {
	s := riverSystem(t, 45, 3)
	if err := s.applyFaultPlan(&faults.RoundPlan{ClockPPMDelta: 800}); err != nil {
		t.Fatal(err)
	}
	if got := s.appliedClockDelta; got != 800 {
		t.Fatalf("node clock %.0f ppm, want 800", got)
	}
	s.SetFaultEngine(nil)
	if got := s.appliedClockDelta; got != 0 {
		t.Fatalf("node clock %.0f ppm after heal, want 0", got)
	}
}

// TestWatchdogTrips: an absurdly tight deadline abandons the round
// gracefully — report flagged, no error; the default (zero) never trips.
func TestWatchdogTrips(t *testing.T) {
	s := riverSystem(t, 45, 3)
	s.WakeNode(3600)
	s.cfg.RoundDeadline = time.Nanosecond
	rep, err := s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.WatchdogTripped {
		t.Fatal("1 ns deadline did not trip the watchdog")
	}
	if rep.Rx.OK() {
		t.Fatal("abandoned round still produced a decode")
	}

	s.cfg.RoundDeadline = 0
	rep, err = s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if rep.WatchdogTripped {
		t.Fatal("disabled watchdog tripped")
	}
}

// TestSetChipRateRoundTrip: stepping down to a slower chip rate keeps the
// link decoding, invalid rates are rejected atomically, and the original
// rate restores.
func TestSetChipRateRoundTrip(t *testing.T) {
	s := riverSystem(t, 40, 7)
	orig := s.ChipRate()

	if err := s.SetChipRate(250); err != nil {
		t.Fatal(err)
	}
	if s.ChipRate() != 250 {
		t.Fatalf("chip rate %.0f, want 250", s.ChipRate())
	}
	s.WakeNode(3600)
	rep, err := s.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rx.OK() {
		t.Fatalf("decode failed at 250 cps: %v", rep.Rx.Err)
	}

	// 300 cps violates the tone/chip numerology: reject, keep 250.
	if err := s.SetChipRate(300); err == nil {
		t.Fatal("invalid chip rate accepted")
	}
	if s.ChipRate() != 250 {
		t.Fatalf("failed retune corrupted chip rate to %.0f", s.ChipRate())
	}

	if err := s.SetChipRate(orig); err != nil {
		t.Fatal(err)
	}
	s.WakeNode(3600)
	if rep, _ = s.RunRound(); !rep.Rx.OK() {
		t.Fatalf("decode failed after restoring %.0f cps: %v", orig, rep.Rx.Err)
	}
}

// TestChaosSoak runs 200 chaotic rounds through one system and, in
// parallel, two systems sharing one engine — the -race soak leg. The
// pipeline must absorb every fault class without an error or panic.
func TestChaosSoak(t *testing.T) {
	sc, err := faults.Parse("chaos", 1234)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(sc.Scale(0.6))
	if err != nil {
		t.Fatal(err)
	}

	s := riverSystem(t, 45, 13)
	s.SetFaultEngine(eng)
	delivered := 0
	for i := 0; i < 200; i++ {
		s.WakeNode(60)
		rep, err := s.RunRound()
		if err != nil {
			t.Fatalf("soak round %d: %v", i, err)
		}
		if rep.Rx.OK() {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("0/200 chaotic rounds delivered — faults are implausibly fatal")
	}
	if delivered == 200 {
		t.Error("200/200 chaotic rounds delivered — faults are implausibly benign")
	}
	t.Logf("soak: %d/200 rounds delivered under chaos", delivered)

	// Concurrent soak: each system owns its design (element faults mutate
	// the array) but both share the engine, whose Plan must be re-entrant.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		sys := riverSystem(t, 45, int64(50+w))
		sys.SetFaultEngine(eng)
		wg.Add(1)
		go func(sys *System, w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sys.WakeNode(60)
				if _, err := sys.RunRound(); err != nil {
					t.Errorf("concurrent soak worker %d round %d: %v", w, i, err)
					return
				}
			}
		}(sys, w)
	}
	wg.Wait()
}
