package experiments

import (
	"strings"
	"testing"

	"vab/internal/sim"
)

// fast returns low-cost options for the Monte-Carlo experiments; shape
// assertions below are chosen to be robust at these trial counts.
func fast() Options { return Options{Trials: 200, Seed: 1} }

func TestRegistryAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 15 {
		t.Fatalf("expected 15 experiments, have %v", ids)
	}
	if ids[0] != "E1" || ids[9] != "E10" || ids[10] != "X1" || ids[14] != "X5" {
		t.Errorf("ID ordering wrong: %v", ids)
	}
	if _, err := Run("E99", fast()); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestRunAllProducesTables(t *testing.T) {
	results, err := RunAll(Options{Trials: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 15 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.Table == nil || tableRows(r.Table) == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		if r.Kind != "figure" && r.Kind != "table" {
			t.Errorf("%s: kind %q", r.ID, r.Kind)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s: no metrics", r.ID)
		}
		want := "(R)"
		if strings.HasPrefix(r.ID, "X") {
			want = "(extension)"
		}
		if out := r.Table.String(); !strings.Contains(out, want) {
			t.Errorf("%s: table title must carry the %q marker", r.ID, want)
		}
	}
}

// TestWorkersBitIdentity pins the parallel-harness contract at the
// experiment level: any Workers count must regenerate byte-identical
// artifacts — same table CSV, same metrics — for the Monte-Carlo-heavy
// experiments the pool actually parallelizes (E1 sweeps, E6 dual sweeps,
// the E10 campaign) and for a concurrent RunMany batch.
func TestWorkersBitIdentity(t *testing.T) {
	for _, id := range []string{"E1", "E6", "E10"} {
		serial, err := Run(id, Options{Trials: 60, Seed: 9, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := Run(id, Options{Trials: 60, Seed: 9, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if s, p := serial.Table.CSV(), parallel.Table.CSV(); s != p {
			t.Errorf("%s: table differs between 1 and 8 workers:\nserial:\n%s\nparallel:\n%s", id, s, p)
		}
		if len(serial.Metrics) != len(parallel.Metrics) {
			t.Errorf("%s: metric count differs", id)
		}
		for k, v := range serial.Metrics {
			if pv, ok := parallel.Metrics[k]; !ok || pv != v {
				t.Errorf("%s: metric %s = %v parallel vs %v serial", id, k, pv, v)
			}
		}
	}

	// RunMany: concurrent experiment execution preserves order and content.
	ids := []string{"E2", "E3", "E10"}
	serial, err := RunMany(ids, Options{Trials: 40, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunMany(ids, Options{Trials: 40, Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if serial[i].ID != ids[i] || parallel[i].ID != ids[i] {
			t.Fatalf("result order broken: %s / %s at %d", serial[i].ID, parallel[i].ID, i)
		}
		if serial[i].Table.CSV() != parallel[i].Table.CSV() {
			t.Errorf("%s: RunMany table differs between widths", ids[i])
		}
	}
}

// TestRunManyEarliestListedError pins RunMany's error contract: the error
// of the earliest-listed failing experiment, at any width.
func TestRunManyEarliestListedError(t *testing.T) {
	ids := []string{"E2", "bogus1", "bogus2"}
	var want string
	for _, workers := range []int{1, 8} {
		_, err := RunMany(ids, Options{Trials: 20, Seed: 3, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if !strings.HasPrefix(err.Error(), `experiments: bogus1: experiments: unknown experiment "bogus1"`) {
			t.Fatalf("workers=%d: error %q does not name bogus1", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: error %q differs from the serial %q", workers, err, want)
		}
	}
}

// TestE1RangeClaim locks the abstract's headline: BER ≤ 1e-3 at 300 m
// round trip in the river, across orientations.
func TestE1RangeClaim(t *testing.T) {
	res, err := E1RangeRiver(fast())
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Metrics["range_at_target"]; r < 280 {
		t.Errorf("river range %v m, paper claims >300", r)
	}
	// Worst Monte-Carlo BER at 300 m stays near the target (sampling
	// noise allows a small excursion).
	if b := res.Metrics["worst_ber_at_300m"]; b > 5e-3 {
		t.Errorf("worst BER at 300 m = %v", b)
	}
}

// TestE3FifteenX locks the 15× head-to-head claim.
func TestE3FifteenX(t *testing.T) {
	res, err := E3HeadToHead(fast())
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Metrics["range_ratio"]
	if ratio < 11 || ratio > 19 {
		t.Errorf("range ratio %.1f×, paper claims 15×", ratio)
	}
	if res.Metrics["vab_range_m"] <= res.Metrics["pab_range_m"] {
		t.Error("VAB must beat the baseline")
	}
	// The decomposition terms must be positive and sum to more than the
	// ratio implies (fading nonlinearity absorbs the rest).
	if res.Metrics["node_gain_gap_db"] < 20 {
		t.Errorf("node gain gap %.1f dB implausibly small", res.Metrics["node_gain_gap_db"])
	}
}

func TestE2OrderingAcrossRange(t *testing.T) {
	res, err := E2SNRComparison(fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["vab_minus_pab_db"] < 30 {
		t.Errorf("VAB-PAB SNR gap %.1f dB too small", res.Metrics["vab_minus_pab_db"])
	}
}

// TestE4OrientationClaim locks "across orientations": the Van Atta range is
// flat over ±75° while the specular baseline collapses.
func TestE4OrientationClaim(t *testing.T) {
	res, err := E4Orientation(fast())
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Metrics["vab_range_spread"]; s > 0.1 {
		t.Errorf("van atta range spread %.2f across orientations", s)
	}
	if res.Metrics["vab_min_range_m"] < 280 {
		t.Errorf("worst-case orientation range %v m", res.Metrics["vab_min_range_m"])
	}
}

func TestE5ScalingMonotone(t *testing.T) {
	res, err := E5ElementScaling(fast())
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, n := range []string{"range_n1", "range_n2", "range_n4", "range_n8", "range_n16", "range_n32"} {
		r := res.Metrics[n]
		if r <= prev {
			t.Fatalf("%s = %v not monotone", n, r)
		}
		prev = r
	}
	// Doubling elements gives ~6 dB → with ~31 dB/decade round-trip slope
	// roughly 1.55× range per doubling: 16 vs 1 ⇒ ~5×.
	g := res.Metrics["range_gain_16_vs_1"]
	if g < 3.5 || g > 8 {
		t.Errorf("16-element range gain %v×, want ~5×", g)
	}
}

// TestE6OceanClaim locks the first-ocean-validation claim: the system
// operates at useful coastal ranges, at reduced reach versus the river.
func TestE6OceanClaim(t *testing.T) {
	res, err := E6Ocean(fast())
	if err != nil {
		t.Fatal(err)
	}
	or := res.Metrics["ocean_range_at_target"]
	rr := res.Metrics["river_range_at_target"]
	if or < 60 {
		t.Errorf("ocean range %v m too short for the validation claim", or)
	}
	if or >= rr {
		t.Errorf("ocean range %v m should trail river %v m", or, rr)
	}
}

func TestE7ThroughputTradeoff(t *testing.T) {
	res, err := E7Throughput(fast())
	if err != nil {
		t.Fatal(err)
	}
	// Range falls monotonically with chip rate.
	prev := 1e18
	for _, k := range []string{"range_at_125cps", "range_at_250cps", "range_at_500cps", "range_at_1000cps", "range_at_2000cps"} {
		r := res.Metrics[k]
		if r >= prev {
			t.Fatalf("%s = %v not monotone decreasing", k, r)
		}
		prev = r
	}
}

func TestE8PowerClaims(t *testing.T) {
	res, err := e8PowerBudget(fast())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["backscatter_uw"] > 100 {
		t.Errorf("backscatter power %v µW not ultra-low-power", res.Metrics["backscatter_uw"])
	}
	if res.Metrics["harvest_breakeven_m"] < 20 || res.Metrics["harvest_breakeven_m"] > 400 {
		t.Errorf("harvest break-even %v m implausible", res.Metrics["harvest_breakeven_m"])
	}
	if res.Metrics["battery_years"] < 1 {
		t.Errorf("battery life %v years too short", res.Metrics["battery_years"])
	}
}

func TestE9MatchingClaims(t *testing.T) {
	res, err := e9Matching(fast())
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Metrics["matched_depth_gain_db"]; g < 2 || g > 12 {
		t.Errorf("matched depth gain %v dB implausible", g)
	}
	if bw := res.Metrics["match_bw_hz"]; bw < 100 || bw > 5000 {
		t.Errorf("match bandwidth %v Hz implausible", bw)
	}
}

// TestE10CampaignScale locks the >1,500-trials claim at full options.
func TestE10CampaignScale(t *testing.T) {
	res, err := e10Campaign(Options{Seed: 5}) // default trial counts
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Metrics["total_trials"]; n < 1300 {
		t.Errorf("campaign ran %v trials, abstract claims >1,500", n)
	}
	if d := res.Metrics["river_300m_delivery"]; d < 0.8 {
		t.Errorf("river 300 m delivery %v", d)
	}
}

func TestResultsDeterministicAcrossRuns(t *testing.T) {
	a, err := E1RangeRiver(Options{Trials: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := E1RangeRiver(Options{Trials: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Error("same seed should reproduce identical tables")
	}
}

// TestX1RangingAccuracy locks the extension claim: sub-meter-class ranging
// from the backscatter time of flight.
func TestX1RangingAccuracy(t *testing.T) {
	res, err := X1Ranging(Options{Trials: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Metrics["worst_error_m"]; w > 3 {
		t.Errorf("worst ranging error %v m", w)
	}
}

// TestX2MaryTradeoff locks the extension claim: at equal switching rate
// and chip energy, M-ary FSK multiplies throughput while keeping range
// within a few percent — orthogonal FSK's per-bit efficiency offsets the
// higher per-symbol threshold, so the binding constraint is transducer
// bandwidth, not detection.
func TestX2MaryTradeoff(t *testing.T) {
	res, err := X2MaryThroughput(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r2 := res.Metrics["range_2fsk_m"]
	for _, k := range []string{"range_4fsk_m", "range_8fsk_m"} {
		r := res.Metrics[k]
		if r < 0.8*r2 || r > 1.2*r2 {
			t.Errorf("%s = %v strays from 2-FSK's %v beyond MC noise", k, r, r2)
		}
	}
}

// TestX3TiersAgreeWithinMargin locks the cross-tier validation: the
// waveform tier may trail the budget tier (it carries more impairments),
// but not by a chasm at operating ranges.
func TestX3TiersAgreeWithinMargin(t *testing.T) {
	res, err := X3WaveformValidation(Options{Trials: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gap := res.Metrics["worst_delivery_gap"]; gap > 0.75 {
		t.Errorf("budget tier over-promises by %.0f points somewhere", 100*gap)
	}
}

// TestX4RatioRobust locks the sensitivity claim: the 15× comparison stays
// in double digits under ±3 dB perturbation of either calibrated constant.
func TestX4RatioRobust(t *testing.T) {
	res, err := X4Sensitivity(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lo := res.Metrics["ratio_min"]; lo < 9 {
		t.Errorf("ratio collapses to %.1f× under perturbation", lo)
	}
	if hi := res.Metrics["ratio_max"]; hi > 25 {
		t.Errorf("ratio balloons to %.1f× under perturbation", hi)
	}
}

// TestX5EnvironmentTrends locks the physical trends: wind costs range
// steeply (noise floor), while warming *helps* slightly at 18.5 kHz — the
// band sits below the MgSO4 relaxation, whose frequency rises with
// temperature and drags absorption down with it.
func TestX5EnvironmentTrends(t *testing.T) {
	res, err := X5Environment(Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["range_at_18mps"] >= res.Metrics["range_at_1mps"]/2 {
		t.Error("storm winds should cost range heavily")
	}
	if res.Metrics["range_at_28C"] <= res.Metrics["range_at_4C"] {
		t.Error("warming should slightly extend range at 18.5 kHz (sub-relaxation band)")
	}
	if res.Metrics["range_at_12mps"] < 30 {
		t.Errorf("range %v m at 12 m/s wind implausibly short", res.Metrics["range_at_12mps"])
	}
}

// tableRows counts a table's data rows: its CSV lines minus the header.
func tableRows(tb *sim.Table) int { return strings.Count(tb.CSV(), "\n") - 1 }
