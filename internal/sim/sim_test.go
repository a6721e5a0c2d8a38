package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vab/internal/core"
	"vab/internal/ocean"
	"vab/internal/phy"
)

func riverBudget(t *testing.T) *core.LinkBudget {
	t.Helper()
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewLinkBudget(env, d)
}

func TestRunCellValidation(t *testing.T) {
	if _, err := RunCell(TrialConfig{}); err == nil {
		t.Error("nil budget accepted")
	}
	b := riverBudget(t)
	if _, err := RunCell(TrialConfig{Budget: b, RangeM: 100, Trials: 0, ChipsPerTrial: 10}); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := RunCell(TrialConfig{Budget: b, RangeM: 100, Trials: 5, ChipsPerTrial: 0}); err == nil {
		t.Error("zero chips accepted")
	}
}

func TestRunCellMatchesAnalyticBER(t *testing.T) {
	// With enough trials, the Monte-Carlo BER must converge to the
	// budget's analytic prediction.
	// Ranges where the analytic BER is large enough (≥5e-4) that 6000
	// trials sample the fade tail adequately; deeper into the tail the
	// estimator needs prohibitively many trials (errors concentrate in
	// rare deep-fade trials).
	b := riverBudget(t)
	for _, r := range []float64{250, 320, 400} {
		cell, err := RunCell(TrialConfig{
			Budget: b, RangeM: r, Trials: 6000, ChipsPerTrial: 400, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := b.BER(r)
		if cell.BER < want/2 || cell.BER > want*2 {
			t.Errorf("r=%v: MC BER %.3g vs analytic %.3g", r, cell.BER, want)
		}
		// The Wilson interval is computed over chips, which share a fade
		// within each trial, so it understates the trial-level spread; it
		// is reported for relative comparisons, not absolute coverage.
		// Here just check ordering sanity.
		if !(cell.BERLow <= cell.BER && cell.BER <= cell.BERHigh) {
			t.Errorf("r=%v: CI [%.3g, %.3g] does not bracket the estimate %.3g", r, cell.BERLow, cell.BERHigh, cell.BER)
		}
	}
}

func TestRunCellDeterministic(t *testing.T) {
	b := riverBudget(t)
	cfg := TrialConfig{Budget: b, RangeM: 200, Trials: 200, ChipsPerTrial: 100, Seed: 42}
	a, err := RunCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("same seed must reproduce identical results")
	}
	cfg.Seed = 43
	d, _ := RunCell(cfg)
	if a == d {
		t.Error("different seeds should differ")
	}
}

func TestRicianPowerGainStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []float64{0, 1, 10} {
		var sum float64
		n := 200000
		for i := 0; i < n; i++ {
			sum += RicianPowerGain(k, rng)
		}
		mean := sum / float64(n)
		if math.Abs(mean-1) > 0.02 {
			t.Errorf("K=%v: mean power gain %v, want 1", k, mean)
		}
	}
	if RicianPowerGain(math.Inf(1), rng) != 1 {
		t.Error("infinite K should be static")
	}
	// Negative K clamps to Rayleigh rather than producing NaNs.
	if g := RicianPowerGain(-3, rng); math.IsNaN(g) || g < 0 {
		t.Errorf("negative K produced %v", g)
	}
}

func TestRicianFadeDepthOrdering(t *testing.T) {
	// Low-K channels fade much deeper: P(gain < 0.1) should be clearly
	// larger for K=0 than for K=10.
	count := func(k float64) int {
		rng := rand.New(rand.NewSource(9))
		c := 0
		for i := 0; i < 50000; i++ {
			if RicianPowerGain(k, rng) < 0.1 {
				c++
			}
		}
		return c
	}
	if r, s := count(0), count(10); r < 10*s {
		t.Errorf("deep-fade counts: Rayleigh %d vs K=10 %d", r, s)
	}
}

func TestBinomialStatisticsProperty(t *testing.T) {
	f := func(seed int64, pRaw uint16, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%2000 + 1
		p := float64(pRaw) / 65535
		k := binomial(n, p, rng)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Mean check in both regimes (small-p loop and Gaussian branch).
	for _, tc := range []struct {
		n int
		p float64
	}{{10000, 0.001}, {10000, 0.3}} {
		rng := rand.New(rand.NewSource(3))
		var sum float64
		trials := 3000
		for i := 0; i < trials; i++ {
			sum += float64(binomial(tc.n, tc.p, rng))
		}
		mean := sum / float64(trials)
		want := float64(tc.n) * tc.p
		if math.Abs(mean-want) > 0.05*want+1 {
			t.Errorf("n=%d p=%v: mean %v, want %v", tc.n, tc.p, mean, want)
		}
	}
	if binomial(10, 0, nil) != 0 || binomial(10, 1, nil) != 10 {
		t.Error("degenerate probabilities wrong")
	}
}

// TestGeometricBinomialZeroDraw pins the u == 0 boundary: rand.Float64
// draws from [0, 1), and log(0) = -Inf used to leave the geometric skip
// undefined (a float→int conversion of +Inf). A zero draw must terminate
// the count — it is the u → 0⁺ limit of an unbounded failure run — and
// never loop or return an out-of-range count.
func TestGeometricBinomialZeroDraw(t *testing.T) {
	lq := math.Log1p(-0.01) // p = 0.01

	// Zero on the very first draw: no successes land.
	if k := geometricBinomial(1000, lq, func() float64 { return 0 }); k != 0 {
		t.Errorf("immediate zero draw: k = %d, want 0", k)
	}

	// Zero after a few successes: the count up to the zero draw survives.
	draws := []float64{0.5, 0.5, 0}
	i := 0
	next := func() float64 { v := draws[i]; i++; return v }
	k := geometricBinomial(1000, lq, next)
	if k != 2 {
		t.Errorf("zero after two successes: k = %d, want 2", k)
	}

	// The result must stay in [0, n] even when every draw is pathological.
	if k := geometricBinomial(3, lq, func() float64 { return math.SmallestNonzeroFloat64 }); k < 0 || k > 3 {
		t.Errorf("denormal draws: k = %d out of [0, 3]", k)
	}
}

func TestRangeSweepShape(t *testing.T) {
	b := riverBudget(t)
	ranges := []float64{50, 150, 300, 450}
	cells, err := RangeSweep(b, ranges, 500, 200, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(ranges) {
		t.Fatalf("got %d cells", len(cells))
	}
	// BER should grow with range overall (allow sampling noise at the
	// low-BER end by comparing first to last).
	if cells[0].BER >= cells[len(cells)-1].BER {
		t.Errorf("BER did not grow across the sweep: %v → %v", cells[0].BER, cells[len(cells)-1].BER)
	}
	for i, c := range cells {
		if c.RangeM != ranges[i] {
			t.Error("range column wrong")
		}
		if c.MeanSNRdB == 0 {
			t.Error("missing SNR")
		}
	}
}

func TestOrientationSweepDoesNotMutateBudget(t *testing.T) {
	b := riverBudget(t)
	before := b.Orientation
	cells, err := orientationSweep(b, 100, []float64{0, 0.5, 1.0}, 100, 100, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatal("cell count")
	}
	if b.Orientation != before {
		t.Error("sweep mutated the caller's budget")
	}
	// Van Atta: orientation barely matters.
	if math.Abs(cells[0].MeanSNRdB-cells[2].MeanSNRdB) > 1.5 {
		t.Errorf("van atta orientation SNR moved: %v vs %v", cells[0].MeanSNRdB, cells[2].MeanSNRdB)
	}
}

func TestFrameLossTracksBER(t *testing.T) {
	b := riverBudget(t)
	near, err := RunCell(TrialConfig{Budget: b, RangeM: 50, Trials: 300, ChipsPerTrial: 392, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	far, err := RunCell(TrialConfig{Budget: b, RangeM: 450, Trials: 300, ChipsPerTrial: 392, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if near.FrameLoss > far.FrameLoss {
		t.Errorf("frame loss near %v > far %v", near.FrameLoss, far.FrameLoss)
	}
}

func TestEbN0SanityAgainstPHYModels(t *testing.T) {
	// The harness should reproduce the textbook AWGN curve when fading is
	// disabled via an infinite K override.
	b := riverBudget(t)
	b.RicianOverride = math.Inf(1)
	r := 250.0
	cell, err := RunCell(TrialConfig{Budget: b, RangeM: r, Trials: 3000, ChipsPerTrial: 500, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	want := phy.BERNoncoherentFSK(math.Pow(10, b.ToneSNRdB(r)/10))
	if want > 1e-5 && (cell.BER < want/1.5 || cell.BER > want*1.5) {
		t.Errorf("AWGN MC %.3g vs analytic %.3g", cell.BER, want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "range", "ber")
	tb.AddRowf(100.0, 0.00123)
	tb.AddRowf(300.0, 1.5e-7)
	tb.AddRow("extra", "cell", "dropped")
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "range") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "1.50e-07") {
		t.Errorf("scientific formatting missing:\n%s", out)
	}
	if len(tb.rows) != 3 {
		t.Error("row count")
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "range,ber\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	// Quoting.
	tb2 := NewTable("", "a")
	tb2.AddRow(`with,comma "q"`)
	if !strings.Contains(tb2.CSV(), `"with,comma ""q"""`) {
		t.Errorf("csv quoting wrong: %q", tb2.CSV())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		0.5:     "0.5000",
		12.345:  "12.35",
		1234.5:  "1234.5",
		1e-6:    "1.00e-06",
		2.5e7:   "2.50e+07",
		-0.0001: "-1.00e-04",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// orientationSweep runs cells across node orientations at a fixed range on
// a RunCells pool (see RangeSweep for the worker contract). The budget is
// copied per cell so the caller's budget is untouched and no two workers
// share a mutable budget.
func orientationSweep(b *core.LinkBudget, rangeM float64, thetas []float64, trials, chipsPerTrial int, seed int64, workers int) ([]CellResult, error) {
	cfgs := make([]TrialConfig, len(thetas))
	for i, th := range thetas {
		bb := *b
		bb.Orientation = th
		cfgs[i] = TrialConfig{
			Budget: &bb, RangeM: rangeM, Trials: trials,
			ChipsPerTrial: chipsPerTrial, Seed: seed + int64(i)*104729,
		}
	}
	return RunCells(cfgs, workers)
}
