package linksim

import (
	"strings"
	"testing"
	"time"
)

// smallGrid is a CI-sized calibration campaign: four cells, seconds of
// waveform time, but the full pipeline — fault scaling, fallback bias
// correction, isotonic shaping, logistic fit, validation.
func smallGrid() CalibrateConfig {
	return CalibrateConfig{
		Envs:          []string{"river"},
		RangesM:       []float64{50, 300},
		OrientsRad:    []float64{0},
		Intensities:   []float64{0, 1},
		Scenario:      "chaos",
		RoundsPerCell: 6,
		Seed:          11,
	}
}

// TestCalibrateSmallGrid runs the calibrator end-to-end against the real
// waveform tier and checks the table it emits has the physical shape the
// model depends on.
func TestCalibrateSmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	tab, err := Calibrate(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if tab.Scenario != "chaos" || tab.Seed != 11 || tab.RoundsPerCell != 6 {
		t.Fatalf("provenance not recorded: %+v", tab)
	}
	if tab.ChipRate <= 0 || tab.SourceLevelDB <= 0 {
		t.Fatalf("PHY provenance missing: chip=%g sl=%g", tab.ChipRate, tab.SourceLevelDB)
	}
	for ii := range tab.Intensities {
		near := tab.CellAt(0, ii, 0, 0)
		far := tab.CellAt(0, ii, 0, 1)
		if far.PDeliver > near.PDeliver {
			t.Fatalf("intensity %d: delivery rises with range (%g @50m, %g @300m)",
				ii, near.PDeliver, far.PDeliver)
		}
		if far.DelayMs <= near.DelayMs {
			t.Fatalf("intensity %d: delay not increasing with range (%g, %g)",
				ii, near.DelayMs, far.DelayMs)
		}
		if near.SNRMeanDB <= far.SNRMeanDB {
			t.Fatalf("intensity %d: SNR not decreasing with range (%g dB @50m, %g dB @300m)",
				ii, near.SNRMeanDB, far.SNRMeanDB)
		}
	}
	// X3's ground truth in miniature: the fault-free 50 m link delivers,
	// the 300 m link does not.
	if p := tab.CellAt(0, 0, 0, 0).PDeliver; p < 0.5 {
		t.Fatalf("fault-free 50 m cell delivers p=%g, want a working link", p)
	}
	if p := tab.CellAt(0, 0, 0, 1).PDeliver; p > 0.1 {
		t.Fatalf("300 m cell delivers p=%g, want the decode cliff", p)
	}
	if tab.LogisticK <= 0 {
		t.Fatalf("logistic fit k=%g", tab.LogisticK)
	}
}

// TestCalibrateDeterministicAcrossWorkers: the committed artifact's
// regeneration contract — same config, any worker count, same bytes.
func TestCalibrateDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	cfg := smallGrid()
	cfg.Workers = 1
	serial, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parallel, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := serial.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("calibration tables differ across worker counts")
	}
}

// TestCalibrateFallbackStaysFinite: on this grid and seed the fault
// engine kills every element of the 200 m cell, which delivers nothing,
// so its analytic-budget fallback SNR is −Inf. The logistic fit's grid
// search used to start there and never end; the table must come out
// finite, and encodable as JSON, within a bounded time.
func TestCalibrateFallbackStaysFinite(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	cfg := CalibrateConfig{
		Envs: []string{"river"}, RangesM: []float64{50, 200}, OrientsRad: []float64{0},
		Intensities: []float64{1}, Scenario: "chaos", RoundsPerCell: 10, Seed: 50,
	}
	tab := calibrateWithin(t, cfg, 2*time.Minute)
	for i, c := range tab.Cells {
		if !isFinite(c.SNRMeanDB) {
			t.Fatalf("cell %d SNR mean %g", i, c.SNRMeanDB)
		}
	}
	if !isFinite(tab.LogisticK) || !isFinite(tab.LogisticSNR50) {
		t.Fatalf("logistic fit k=%g snr50=%g", tab.LogisticK, tab.LogisticSNR50)
	}
	if _, err := tab.Encode(); err != nil {
		t.Fatal(err)
	}
}

// calibrateWithin runs Calibrate and fails the test if it errs or has not
// returned within d.
func calibrateWithin(t *testing.T, cfg CalibrateConfig, d time.Duration) *Table {
	t.Helper()
	type result struct {
		tab *Table
		err error
	}
	done := make(chan result, 1)
	go func() {
		tab, err := Calibrate(cfg)
		done <- result{tab, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, r.err)
		}
		return r.tab
	case <-time.After(d):
		t.Fatalf("seed %d: Calibrate did not finish within %v", cfg.Seed, d)
		return nil
	}
}

// TestCalibrateTerminatesAcrossSeeds: the reduced grid the calibrate
// benchmark warms with (both environments, 50 and 300 m, intensities 0
// and 1, four rounds per cell) returns a valid table at every seed from
// 1 to 20, each within a deadline. A cell whose fallback analytic SNR is
// −Inf once sent the logistic fit's grid search into an endless loop
// (see TestCalibrateFallbackStaysFinite); the SNR floor keeps the fit's
// input finite, and this pins that no seed of the grid still hangs.
func TestCalibrateTerminatesAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	for seed := int64(1); seed <= 20; seed++ {
		cfg := CalibrateConfig{
			Envs: []string{"river", "ocean"}, RangesM: []float64{50, 300},
			OrientsRad: []float64{0}, Intensities: []float64{0, 1},
			Scenario: "chaos", RoundsPerCell: 4, Seed: seed, Workers: 1,
		}
		tab := calibrateWithin(t, cfg, time.Minute)
		if err := tab.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestCalibrateConfigValidate pins the config's rejection surface.
func TestCalibrateConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		wreck func(*CalibrateConfig)
		want  string
	}{
		{"empty axis", func(c *CalibrateConfig) { c.RangesM = nil }, "empty axis"},
		{"bad rounds", func(c *CalibrateConfig) { c.RoundsPerCell = 0 }, "rounds per cell"},
		{"bad env", func(c *CalibrateConfig) { c.Envs = []string{"lake"} }, "unknown environment"},
		{"bad scenario", func(c *CalibrateConfig) { c.Scenario = "nonsense" }, "scenario"},
	}
	for _, tc := range cases {
		cfg := smallGrid()
		tc.wreck(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := Calibrate(CalibrateConfig{}); err == nil {
		t.Fatal("Calibrate accepted the zero config")
	}
}

// TestEnvByName pins the preset surface.
func TestEnvByName(t *testing.T) {
	for _, name := range []string{"river", "ocean"} {
		env, err := EnvByName(name)
		if err != nil || env == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := EnvByName("lagoon"); err == nil || !strings.Contains(err.Error(), "river") {
		t.Fatalf("unknown env error should list presets, got %v", err)
	}
}
