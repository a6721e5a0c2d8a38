package linksim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vab/internal/faults"
	"vab/internal/mac"
)

// probationPolicy is the recovery-stack policy the fleet tests share.
func probationPolicy() mac.PollPolicy {
	return mac.PollPolicy{
		MaxRetries: 2, DropAfter: 3,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
	}
}

// transcript renders cycle reports with full float bit fidelity (%x), so
// byte comparison catches any numeric divergence.
func transcript(reps []CycleReport) string {
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "c%d p%d d%d r%d pr%d re%d L%d Q%d D%d snr%x delay%x corr%x sev%x chips%x h%d/%d z%x\n",
			r.Cycle, r.Polled, r.Delivered, r.Retries, r.Probes, r.Restored,
			r.Live, r.Quarantined, r.Dropped,
			r.MeanSNRdB, r.MeanDelayMs, r.CorrectedPerFrame, r.Severity, r.ChipRate,
			r.Hero.Checks, r.Hero.Diverged, r.Hero.MeanAbsZ)
	}
	return b.String()
}

// runCampaign runs a seeded campaign at the given worker count and returns
// the full transcript.
func runCampaign(t *testing.T, workers, cycles int) string {
	t.Helper()
	fleet := campaignFleet(t, workers, 0)
	defer fleet.Close()

	reps := make([]CycleReport, 0, cycles)
	for c := 0; c < cycles; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return transcript(reps)
}

// campaignFleet builds the 20,000-node chaos, rate-adaptation and
// probation campaign the determinism and golden tests share.
func campaignFleet(t *testing.T, workers, heroLinks int) *Fleet {
	t.Helper()
	fleet, err := NewFleet(Config{
		Nodes:     20_000,
		Policy:    probationPolicy(),
		Seed:      17,
		HeroLinks: heroLinks,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		t.Fatal(err)
	}
	fleet.EnableRateAdaptation(rc)
	sc, err := faults.Parse("chaos", 17+9001)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetFaultEngine(eng)
	fleet.SetWorkers(workers)
	return fleet
}

// TestFleetDeterminismAcrossWorkers: the full campaign transcript — every
// counter and every float — is byte-identical at 1 and 8 workers, under
// faults, probation and rate adaptation. This is the abstract tier's core
// reproducibility contract, the one the CI cmp leg checks end-to-end.
func TestFleetDeterminismAcrossWorkers(t *testing.T) {
	serial := runCampaign(t, 1, 8)
	parallel := runCampaign(t, 8, 8)
	if serial != parallel {
		t.Fatalf("workers=1 and workers=8 transcripts differ:\n--- w1\n%s--- w8\n%s", serial, parallel)
	}
	again := runCampaign(t, 8, 8)
	if parallel != again {
		t.Fatal("same-seed rerun differs")
	}
	if !strings.Contains(serial, "Q") || len(serial) == 0 {
		t.Fatal("empty transcript")
	}
}

// updateGolden rewrites testdata/fleet_transcript_golden.txt from the
// code under test: go test ./internal/linksim -run TestFleetTranscriptGolden -update.
var updateGolden = flag.Bool("update", false, "rewrite testdata/fleet_transcript_golden.txt")

// runDefaultPolicy runs a fleet with no fault engine and no rate
// controller under mac.DefaultPollPolicy: the model key never changes, so
// every cycle after the second draws from the resolved-cell cache, and
// far nodes reach the permanent-drop path.
func runDefaultPolicy(t *testing.T, workers, cycles int) string {
	t.Helper()
	fleet, err := NewFleet(Config{Nodes: 20_000, Policy: mac.DefaultPollPolicy(), Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	fleet.SetWorkers(workers)
	reps := make([]CycleReport, 0, cycles)
	for c := 0; c < cycles; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	return transcript(reps)
}

// fleetGolden is the transcript the golden file pins: the chaos, rate and
// probation campaign, then the cached default-policy run.
func fleetGolden(t *testing.T, workers int) []byte {
	return []byte("# campaign: chaos + rate adaptation + probation, 20000 nodes\n" +
		runCampaign(t, workers, 8) +
		"# default policy: resolved-cell cache, 20000 nodes\n" +
		runDefaultPolicy(t, workers, 12))
}

// TestFleetTranscriptGolden compares the abstract tier's cycle reports,
// every float at full bit width, against a committed transcript at 1, 3
// and 8 workers. TestFleetDeterminismAcrossWorkers only compares worker
// counts with each other, so a change shared by every width passes it;
// this test fails on that change too.
func TestFleetTranscriptGolden(t *testing.T) {
	const path = "testdata/fleet_transcript_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, fleetGolden(t, 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		if got := fleetGolden(t, workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: transcript drifted from %s:\n%s", workers, path, got)
		}
	}
}

// hardTable builds a table whose delivery is exactly 0 or 1 by range —
// 50 m always delivers, 200 m never does — turning the statistical model
// into a deterministic oracle the mac.Scheduler can be replayed against.
func hardTable() *Table {
	mk := func(p float64) Cell {
		return Cell{PDeliver: p, SNRMeanDB: 15, SNRStdDB: 1, CorrMean: 0, DelayMs: 50}
	}
	return &Table{
		FormatVersion: TableFormatVersion,
		Scenario:      "none",
		Seed:          1,
		RoundsPerCell: 1,
		ChipRate:      500,
		SourceLevelDB: 180,
		Envs:          []string{"river"},
		RangesM:       []float64{50, 200},
		OrientsRad:    []float64{0},
		Intensities:   []float64{0},
		LogisticK:     0.5,
		LogisticSNR50: 10,
		Cells:         []Cell{mk(1), mk(0)},
	}
}

// scriptTrx makes the waveform scheduler reproduce the hard table's
// channel: addresses in the ok set always deliver, the rest always fail.
type scriptTrx struct{ ok map[byte]bool }

func (s scriptTrx) Poll(addr byte, _ float64) (mac.RoundResult, error) {
	if s.ok[addr] {
		return mac.RoundResult{OK: true, SNRdB: 15, Payload: []byte{addr}}, nil
	}
	return mac.RoundResult{}, nil
}

// TestFleetMatchesMacScheduler replays the same deterministic channel
// through the abstract fleet and through a real mac.Scheduler and checks
// the MAC-semantic state — polls, successes, retries, silent cycles,
// health, quarantine trajectory, drops — matches field-for-field every
// cycle. This is the "reuses the mac decision phase" guarantee: identical
// outcomes must produce identical decisions.
func TestFleetMatchesMacScheduler(t *testing.T) {
	policy := probationPolicy()
	placements := []Placement{
		{RangeM: 50}, {RangeM: 200}, {RangeM: 50}, {RangeM: 200}, {RangeM: 50}, {RangeM: 200},
	}
	fleet, err := NewFleet(Config{
		Placements: placements,
		Policy:     policy,
		Table:      hardTable(),
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}

	sched, err := mac.NewScheduler(scriptTrx{ok: map[byte]bool{1: true, 3: true, 5: true}}, policy)
	if err != nil {
		t.Fatal(err)
	}
	for addr := byte(1); addr <= 6; addr++ {
		sched.AddNode(addr)
	}

	const cycles = 16
	for c := 0; c < cycles; c++ {
		frep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		srep, err := sched.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if frep.Polled != srep.Polled || frep.Delivered != srep.Delivered ||
			frep.Retries != srep.Retries || frep.Probes != srep.Probes {
			t.Fatalf("cycle %d: report mismatch: fleet {p%d d%d r%d pr%d} vs sched {p%d d%d r%d pr%d}",
				c, frep.Polled, frep.Delivered, frep.Retries, frep.Probes,
				srep.Polled, srep.Delivered, srep.Retries, srep.Probes)
		}
		want := sched.Nodes() // ascending address = ascending node index here
		for i := range placements {
			got, w := fleet.NodeState(i), want[i]
			if got.Polls != w.Polls || got.Successes != w.Successes ||
				got.Retries != w.Retries || got.SilentCycles != w.SilentCycles ||
				got.Health != w.Health || got.Quarantined != w.Quarantined ||
				got.QuarantineEntries != w.QuarantineEntries || got.Dropped != w.Dropped {
				t.Fatalf("cycle %d node %d: state diverged:\nabstract: %+v\nwaveform: %+v", c, i, got, w)
			}
		}
	}
	// The trajectory must have exercised the interesting transitions.
	if st := fleet.NodeState(1); st.QuarantineEntries == 0 {
		t.Fatal("failing node never quarantined — the parity test lost its teeth")
	}
	if st := fleet.NodeState(0); st.Successes != cycles {
		t.Fatalf("delivering node succeeded %d/%d cycles", fleet.NodeState(0).Successes, cycles)
	}
}

// TestFleetEventDrivenProbeCalendar: quarantined nodes cost nothing except
// on their calendared cycles — Polled shrinks to the live population, and
// probes appear exactly on the backoff schedule.
func TestFleetEventDrivenProbeCalendar(t *testing.T) {
	fleet, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 50}, {RangeM: 200}},
		Policy:     probationPolicy(),
		Table:      hardTable(),
		Seed:       9,
	})
	if err != nil {
		t.Fatal(err)
	}
	type obs struct{ polled, probes int }
	var got []obs
	for c := 0; c < 10; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, obs{rep.Polled, rep.Probes})
	}
	// Node 1 fails cycles 0-2, quarantines at cycle 2 (DropAfter 3), first
	// probe at 2+2=4, next at 4+4=8 (backoff doubling, cap 8).
	want := []obs{{2, 0}, {2, 0}, {2, 0}, {1, 0}, {2, 1}, {1, 0}, {1, 0}, {1, 0}, {2, 1}, {1, 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d: polled/probes %+v, want %+v (full: %+v)", i, got[i], want[i], got)
		}
	}
}

// TestFleetRateAdaptationEngages: the controller starts at the most
// robust rate; with strong drawn SNR it climbs to the calibrated rate
// (commanded rate shifts the draws along the logistic transfer on the
// way), while an all-loss fleet pins the floor.
func TestFleetRateAdaptationEngages(t *testing.T) {
	strong := hardTable()
	for i := range strong.Cells {
		strong.Cells[i].SNRMeanDB = 40
	}
	fleet, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 50}, {RangeM: 50}, {RangeM: 50}},
		Policy:     mac.PollPolicy{MaxRetries: 1}, // never drop
		Table:      strong,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		t.Fatal(err)
	}
	fleet.EnableRateAdaptation(rc)
	first, err := fleet.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if first.ChipRate != 125 {
		t.Fatalf("first cycle commanded %.0f cps, want the robust floor 125", first.ChipRate)
	}
	var last CycleReport
	for c := 0; c < 5; c++ {
		last, err = fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.ChipRate != 500 {
		t.Fatalf("strong-SNR campaign holds chip rate %.0f, want climb to 500", last.ChipRate)
	}

	weak, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 200}, {RangeM: 200}},
		Policy:     mac.PollPolicy{MaxRetries: 1},
		Table:      hardTable(),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rcWeak, err := mac.NewRateController([]float64{125, 250, 500}, 12)
	if err != nil {
		t.Fatal(err)
	}
	weak.EnableRateAdaptation(rcWeak)
	for c := 0; c < 4; c++ {
		last, err = weak.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.ChipRate != 125 {
		t.Fatalf("all-loss campaign commands %.0f cps, want the floor 125", last.ChipRate)
	}
}

// TestNewFleetValidation pins the constructor's rejection surface.
func TestNewFleetValidation(t *testing.T) {
	if _, err := NewFleet(Config{Nodes: 0, Policy: mac.DefaultPollPolicy()}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := NewFleet(Config{Nodes: 3, Placements: []Placement{{RangeM: 50}}, Policy: mac.DefaultPollPolicy()}); err == nil {
		t.Fatal("conflicting Nodes vs Placements accepted")
	}
	if _, err := NewFleet(Config{Nodes: 2, Policy: mac.DefaultPollPolicy(), Env: "lake"}); err == nil {
		t.Fatal("uncalibrated environment accepted")
	}
	if _, err := NewFleet(Config{Nodes: 2, Policy: mac.PollPolicy{MaxRetries: -1}}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}
