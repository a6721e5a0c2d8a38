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
	type result struct {
		tab *Table
		err error
	}
	done := make(chan result, 1)
	go func() {
		tab, err := Calibrate(cfg)
		done <- result{tab, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("Calibrate did not finish")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, c := range r.tab.Cells {
		if !isFinite(c.SNRMeanDB) {
			t.Fatalf("cell %d SNR mean %g", i, c.SNRMeanDB)
		}
	}
	if !isFinite(r.tab.LogisticK) || !isFinite(r.tab.LogisticSNR50) {
		t.Fatalf("logistic fit k=%g snr50=%g", r.tab.LogisticK, r.tab.LogisticSNR50)
	}
	if _, err := r.tab.Encode(); err != nil {
		t.Fatal(err)
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
