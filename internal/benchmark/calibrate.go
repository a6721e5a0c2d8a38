package benchmark

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"vab/internal/channel"
	"vab/internal/dsp"
	"vab/internal/linksim"
	"vab/internal/telemetry"
)

var calibrateWorkload = &Workload{
	name:   "calibrate",
	why:    "the waveform tier's real batch job, checkable byte for byte: dsp, channel, phy and reader do the work, the gateway and fleet none",
	minOps: 3,
	tail:   1,
	setup:  setupCalibrate,
}

type calibrateRunner struct {
	cfg  linksim.CalibrateConfig
	want []byte // expected table bytes; nil until the first table (Small)
}

// setupCalibrate warms the FFT plan and Wenz shaper caches with a reduced
// grid that touches both environments and a chaos cell. The measured job
// is the committed campaign (DefaultCalibrateConfig, seed 7), so every
// table is checked byte for byte against
// internal/linksim/testdata/calibration_v1.json, which the embedded default
// table re-encodes to exactly.
//
// Neither grid takes its seed from --seed: at most campaign seeds some
// cell delivers fewer than three frames where the analytic budget's SNR is
// -Inf (river and ocean, 60°, 200 m), the cell falls back to that SNR, and
// the logistic fit's grid search never terminates. The reduced grid hangs
// the same way at some seeds (11 at four rounds per cell); seed 7
// terminates for both grids.
func setupCalibrate(o *Options) (runner, error) {
	// Serial, because Calibrate's pooled workers all store the table's
	// ChipRate and SourceLevelDB unsynchronized, which the race detector
	// reports under the package tests (where the warm grid is the job).
	warm := linksim.CalibrateConfig{
		Envs: []string{"river", "ocean"}, RangesM: []float64{50, 300},
		OrientsRad: []float64{0}, Intensities: []float64{0, 1},
		Scenario: "chaos", RoundsPerCell: 4, Seed: linksim.DefaultCalibrateConfig().Seed, Workers: 1,
	}
	if _, err := linksim.Calibrate(warm); err != nil {
		return nil, err
	}
	if o.Small {
		return &calibrateRunner{cfg: warm}, nil
	}
	r := &calibrateRunner{cfg: linksim.DefaultCalibrateConfig()}
	r.cfg.Workers = runtime.NumCPU()
	var err error
	r.want, err = linksim.DefaultTable().Encode()
	return r, err
}

func (r *calibrateRunner) verify() error { return nil }

func (r *calibrateRunner) instrument(reg *telemetry.Registry) {
	dsp.Instrument(reg)
	channel.Instrument(reg)
}

func (r *calibrateRunner) measure(d time.Duration, minOps int, tr *Tracer) (phase, error) {
	var ph phase
	buf := tr.Buffer()
	rounds := int64(len(r.cfg.Envs) * len(r.cfg.RangesM) * len(r.cfg.OrientsRad) * len(r.cfg.Intensities) * r.cfg.RoundsPerCell)
	start := time.Now()
	for rep := uint64(1); time.Since(start) < d || len(ph.opMs) < minOps; rep++ {
		t0 := time.Now()
		root := buf.Start("bench.table", rep, 0)
		sp := buf.Start("linksim.Calibrate", rep, root.ID())
		tab, err := linksim.Calibrate(r.cfg)
		sp.End()
		if err != nil {
			return ph, err
		}
		sp = buf.Start("linksim.Table.Encode", rep, root.ID())
		got, err := tab.Encode()
		sp.End()
		root.End()
		ph.opMs = append(ph.opMs, float64(time.Since(t0))/1e6)
		if err != nil {
			return ph, err
		}
		ph.attempted++
		ph.items += rounds
		switch {
		case r.want == nil:
			r.want = got
		case !bytes.Equal(got, r.want):
			ph.failed++
			ph.problems = append(ph.problems, fmt.Sprintf("table %d differs from the committed calibration table", rep))
		}
	}
	return ph, nil
}

func (r *calibrateRunner) close() {}
