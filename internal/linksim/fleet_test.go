package linksim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/telemetry"
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
		fmt.Fprintf(&b, "c%d p%d d%d r%d pr%d re%d L%d Q%d D%d snr%x sev%x chips%x h%d/%d\n",
			r.Cycle, r.Polled, r.Delivered, r.Retries, r.Probes, r.Restored,
			r.Live, r.Quarantined, r.Dropped,
			r.MeanSNRdB, r.Severity, r.ChipRate,
			r.Hero.Checks, r.Hero.Diverged)
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
	attachChaos(t, fleet, 17+9001)
	fleet.SetWorkers(workers)
	return fleet
}

// attachChaos attaches the seeded chaos scenario to fleet. Its severity
// changes every cycle, so the fleet's draws are never cached.
func attachChaos(t *testing.T, fleet *Fleet, seed int64) {
	t.Helper()
	sc, err := faults.Parse("chaos", seed)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetFaultEngine(eng)
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

// updateGolden rewrites the package's goldens (the fleet transcript, the
// schedule log and the calibration sub-grid) from the code under test:
// go test ./internal/linksim -run 'Golden' -update.
var updateGolden = flag.Bool("update", false, "rewrite the goldens under testdata/")

// runDefaultPolicy runs a fleet with no fault engine and no rate
// controller under mac.DefaultPollPolicy: the model key never changes, so
// every cycle, the first included, draws from the resolved-cell cache,
// and far nodes reach the permanent-drop path.
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
// into a deterministic oracle.
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

// TestFleetProbeBeyondWheelHorizon drives the overflow path end-to-end: a
// policy whose re-probe backoff (1500 cycles, cap 2048) exceeds the
// probe wheel's 1024-bucket ceiling quarantines a dead node, and the
// re-probe fires exactly 1500 cycles later via the overflow list — no
// probe sooner — and the failed probe's next one 2048 cycles after that,
// so nothing is lost.
func TestFleetProbeBeyondWheelHorizon(t *testing.T) {
	policy := mac.PollPolicy{
		MaxRetries: 0, DropAfter: 2,
		Probation: true, ProbeBackoffBase: 1500, ProbeBackoffMax: 2048,
	}
	fleet, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 50}, {RangeM: 200}},
		Policy:     policy,
		Table:      hardTable(),
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 (200 m, never delivers) fails cycles 0 and 1, quarantines at
	// cycle 1, probe due at 1+1500; that probe fails, the next is due
	// 2048 cycles later.
	const quarantineCycle = 1
	probeCycle := quarantineCycle + 1500
	cycles, regular, probes := 0, 0, 0
	for c := 0; c <= probeCycle+2048; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		cycles++
		regular += rep.Polled - rep.Probes
		probes += rep.Probes
		wantProbes := 0
		if c == probeCycle || c == probeCycle+2048 {
			wantProbes = 1
		}
		if rep.Probes != wantProbes {
			t.Fatalf("cycle %d: probes %d, want %d", c, rep.Probes, wantProbes)
		}
		if c > quarantineCycle && wantProbes == 0 && rep.Polled != 1 {
			t.Fatalf("cycle %d: polled %d while node 1 awaits its far probe, want 1", c, rep.Polled)
		}
	}
	// Node 0 (50 m) takes one regular poll every cycle: the loop pins it
	// as the only poll of each probe-free cycle after the quarantine.
	if !fleet.cols.Quarantined(1) || regular-cycles != 2 || probes != 2 {
		t.Fatalf("node 1 quarantined=%v after %d regular polls and %d probes, want quarantined after 2 and 2",
			fleet.cols.Quarantined(1), regular-cycles, probes)
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

// TestPlacementsMatchSeedChain: the coordinate column the first uncached
// cycle builds in parallel blocks, and the cell cache a calm fleet fills
// in parallel blocks, hold for every node what a serial loop resolves from
// mix(seed, placeDomain, i), at 1 and 4 workers. 40,000 nodes span three
// blocks, the last one partial.
func TestPlacementsMatchSeedChain(t *testing.T) {
	const nodes, seed = 40_000, 23
	if nodes <= 2*pollBlock {
		t.Fatalf("%d nodes fit in two blocks of %d", nodes, pollBlock)
	}
	tab := DefaultTable()
	type placed struct{ r, o float64 }
	serial := make([]placed, nodes)
	for i := range serial {
		st := newStream(mix(uint64(seed), placeDomain, uint64(i)))
		r := rangeMinM + st.f64()*(rangeMaxM-rangeMinM)
		serial[i] = placed{r, (2*st.f64() - 1) * maxOrientRad}
	}
	for _, workers := range []int{1, 4} {
		build := func() *Fleet {
			fleet, err := NewFleet(Config{Nodes: nodes, Policy: mac.DefaultPollPolicy(), Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			fleet.SetWorkers(workers)
			return fleet
		}
		uncached, calm := build(), build()
		attachChaos(t, uncached, seed)
		for _, fleet := range []*Fleet{uncached, calm} {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
			fleet.Close()
		}
		if len(uncached.coords) != nodes {
			t.Fatalf("workers=%d: the first uncached cycle built %d coordinates, want %d", workers, len(uncached.coords), nodes)
		}
		for i, p := range serial {
			coord := tab.Resolve(p.r, p.o)
			fr, fo := uncached.placement(int32(i))
			if math.Float64bits(fr) != math.Float64bits(p.r) || math.Float64bits(fo) != math.Float64bits(p.o) ||
				uncached.coords[i] != coord {
				t.Fatalf("workers=%d node %d: range %v orient %v coord %+v, serial chain gives %v, %v, %+v",
					workers, i, fr, fo, uncached.coords[i], p.r, p.o, coord)
			}
			var cell Cell
			var want cachedCell
			calm.model.resolve(&cell, coord)
			want.setCell(&cell)
			if calm.cellCache[i] != want {
				t.Fatalf("workers=%d node %d: cache entry %+v, serial coordinate gives %+v", workers, i, calm.cellCache[i], want)
			}
		}
	}

	// Pinned placements are copied: a caller's later edit cannot move a
	// node's hero geometry away from the coordinates it was resolved at.
	pinned := []Placement{{RangeM: 50, OrientRad: 0.2}}
	fleet, err := NewFleet(Config{Placements: pinned, Policy: mac.DefaultPollPolicy(), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pinned[0].RangeM = 250
	if r, o := fleet.placement(0); r != 50 || o != 0.2 {
		t.Fatalf("pinned placement moved to %v, %v after the caller's edit", r, o)
	}
}

// TestCellCachePolicy pins when cycles are served from the resolved-cell
// cache, read from vab_linksim_cell_cache_cycles_total after every cycle:
//   - a calm fleet (no fault engine, no rate controller) has one model key
//     for life and is served from its first cycle on;
//   - a chaos fleet whose severity changes every cycle never is;
//   - a rate-controlled calm fleet is served once its key repeats in
//     consecutive cycles, and then while the key stays the cached one.
//
// The rate case runs four pinned near-range nodes, which climb to the top
// rate and hold it. A large seeded fleet would not do: the fleet-wide
// controller steps down on any lost poll, so its rate flips nearly every
// cycle and no key repeats.
func TestCellCachePolicy(t *testing.T) {
	const cycles = 12
	hits := func(fleet *Fleet) *telemetry.Counter {
		reg := telemetry.NewRegistry()
		fleet.Instrument(reg)
		return reg.Counter("vab_linksim_cell_cache_cycles_total", "")
	}
	build := func() *Fleet {
		fleet, err := NewFleet(Config{Nodes: 2000, Policy: probationPolicy(), Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		fleet.SetWorkers(2)
		return fleet
	}

	t.Run("calm", func(t *testing.T) {
		fleet := build()
		defer fleet.Close()
		n := hits(fleet)
		for c := 1; c <= cycles; c++ {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
			if n.Value() != int64(c) {
				t.Fatalf("after %d cycles: %d served from the cache, want all", c, n.Value())
			}
		}
	})

	t.Run("chaos", func(t *testing.T) {
		fleet := build()
		defer fleet.Close()
		attachChaos(t, fleet, 31)
		n := hits(fleet)
		prev := math.NaN()
		for c := 0; c < cycles; c++ {
			rep, err := fleet.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Severity == prev {
				t.Fatalf("cycle %d repeats severity %v: the scenario no longer changes every cycle", c, prev)
			}
			prev = rep.Severity
		}
		if n.Value() != 0 {
			t.Fatalf("%d chaos cycles served from the cache, want 0", n.Value())
		}
	})

	t.Run("rate", func(t *testing.T) {
		near := Placement{RangeM: 30}
		fleet, err := NewFleet(Config{Policy: probationPolicy(), Seed: 31,
			Placements: []Placement{near, near, near, near}})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		rc, err := mac.NewRateController([]float64{125, 250, 500}, 12)
		if err != nil {
			t.Fatal(err)
		}
		fleet.EnableRateAdaptation(rc)
		n := hits(fleet)
		// The key is the commanded rate: a cycle is served when its rate
		// repeats the previous cycle's (which fills the cache) or the
		// rate the cache was last filled at.
		prev, filled := 0.0, 0.0
		want, steps := int64(0), 0
		for c := 0; c < cycles; c++ {
			rep, err := fleet.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			if rep.ChipRate == prev || rep.ChipRate == filled {
				want++
				filled = rep.ChipRate
			}
			if c > 0 && rep.ChipRate != prev {
				steps++
			}
			prev = rep.ChipRate
			if n.Value() != want {
				t.Fatalf("cycle %d at %.0f cps: %d served from the cache, want %d", c, rep.ChipRate, n.Value(), want)
			}
		}
		if steps == 0 || want == 0 {
			t.Fatalf("rate steps %d, cached cycles %d: the check needs both", steps, want)
		}
	})
}

// TestCoordsOnlyForUncachedDraws pins when the coordinate column exists: a
// calm fleet, served from the cell cache from its first cycle, never
// builds it, and a chaos fleet, which draws uncached, builds it in its
// first cycle, for every node.
func TestCoordsOnlyForUncachedDraws(t *testing.T) {
	const nodes = 2000
	for _, chaos := range []bool{false, true} {
		fleet, err := NewFleet(Config{Nodes: nodes, Policy: probationPolicy(), Seed: 37})
		if err != nil {
			t.Fatal(err)
		}
		fleet.SetWorkers(2)
		if chaos {
			attachChaos(t, fleet, 37)
		}
		if fleet.coords != nil {
			t.Fatalf("chaos=%v: NewFleet built %d coordinates", chaos, len(fleet.coords))
		}
		for c := 0; c < 6; c++ {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
			if built := len(fleet.coords); chaos && built != nodes || !chaos && fleet.coords != nil {
				t.Fatalf("chaos=%v cycle %d: %d coordinates built", chaos, c, built)
			}
		}
		fleet.Close()
	}
}
