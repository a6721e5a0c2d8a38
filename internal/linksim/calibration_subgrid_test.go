package linksim

import (
	"bytes"
	"os"
	"testing"
)

// subGridConfig is the drift-check campaign: both environments, three
// ranges, two orientations and the fault-free and full-chaos ends of the
// intensity axis — every waveform layer the committed table rests on, at
// a second's worth of rounds.
func subGridConfig() CalibrateConfig {
	return CalibrateConfig{
		Envs:          []string{"river", "ocean"},
		RangesM:       []float64{50, 150, 300},
		OrientsRad:    []float64{0, 0.5},
		Intensities:   []float64{0, 1},
		Scenario:      "chaos",
		RoundsPerCell: 12,
		Seed:          7,
	}
}

// TestCalibrationSubGridGolden ties the abstract tier's calibration to
// the waveform tier that produced it: the sub-grid's encoded table must
// equal the committed golden byte for byte, serially and across a worker
// pool. Any change to the dsp, channel, phy, reader, node or core
// arithmetic under calibration shows up here; regenerate the golden (and
// the full table, via vabsim -calibrate) only for a deliberate change,
// with -update.
func TestCalibrationSubGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	const path = "testdata/calibration_subgrid.json"
	encode := func(workers int) []byte {
		cfg := subGridConfig()
		cfg.Workers = workers
		tab, err := Calibrate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tab.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if *updateGolden {
		if err := os.WriteFile(path, encode(1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if !bytes.Equal(encode(workers), want) {
			t.Fatalf("workers=%d: calibration sub-grid drifted from %s", workers, path)
		}
	}
}
