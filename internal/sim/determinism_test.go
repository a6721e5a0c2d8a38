package sim

import (
	"testing"

	"vab/internal/core"
	"vab/internal/ocean"
	"vab/internal/telemetry"
)

// TestRunCellSeededDeterminism pins the Monte-Carlo contract that every
// experiment artifact depends on: the same TrialConfig.Seed must produce a
// byte-identical CellResult, run after run. Future parallelization of the
// trial loop must preserve this (e.g. by sharding the RNG per trial rather
// than sharing one stream across goroutines in racy order).
func TestRunCellSeededDeterminism(t *testing.T) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewLinkBudget(env, d)
	for _, seed := range []int64{1, 42, 7919} {
		cfg := TrialConfig{
			Budget: b, RangeM: 150, Trials: 400,
			ChipsPerTrial: 392, Seed: seed,
		}
		first, err := RunCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		second, err := RunCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Errorf("seed %d not deterministic:\n first %+v\nsecond %+v", seed, first, second)
		}
	}
}

// TestRunCellsParallelBitIdentity pins the parallelization contract: a
// RunCells pool of any width must reproduce the serial sweep outputs
// exactly, cell by cell, because every cell derives its own RNG from its
// own seed. This is the test that lets -workers default to NumCPU without
// renegotiating the seeded-output guarantees PR 1 locked in.
func TestRunCellsParallelBitIdentity(t *testing.T) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewLinkBudget(env, d)
	ranges := []float64{50, 100, 150, 200, 250, 300, 350}

	serial, err := RangeSweep(b, ranges, 300, 392, 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 32} {
		parallel, err := RangeSweep(b, ranges, 300, 392, 17, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Errorf("workers=%d cell %d diverged:\n  serial %+v\nparallel %+v",
					workers, i, serial[i], parallel[i])
			}
		}
	}

	// orientationSweep under the same contract.
	thetas := []float64{0, 0.3, 0.6, 0.9}
	oSerial, err := orientationSweep(b, 150, thetas, 200, 392, 23, 1)
	if err != nil {
		t.Fatal(err)
	}
	oParallel, err := orientationSweep(b, 150, thetas, 200, 392, 23, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oSerial {
		if oParallel[i] != oSerial[i] {
			t.Errorf("orientation cell %d diverged under 4 workers", i)
		}
	}
}

// TestRunCellsErrorDeterministic verifies that a failing batch reports the
// lowest-index error at any pool width, matching serial behavior.
func TestRunCellsErrorDeterministic(t *testing.T) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewLinkBudget(env, d)
	cfgs := make([]TrialConfig, 6)
	for i := range cfgs {
		cfgs[i] = TrialConfig{Budget: b, RangeM: 100, Trials: 50, ChipsPerTrial: 100, Seed: int64(i)}
	}
	cfgs[2].Trials = 0 // invalid
	cfgs[5].Trials = 0 // invalid, higher index
	var want string
	for _, workers := range []int{1, 2, 8} {
		_, err := RunCells(cfgs, workers)
		if err == nil {
			t.Fatalf("workers=%d: invalid cell accepted", workers)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q, want %q", workers, err.Error(), want)
		}
	}
}

// TestRunCellDeterminismUnderTelemetry verifies the telemetry contract:
// instrumenting the harness observes counters but never perturbs the
// seeded trial stream.
func TestRunCellDeterminismUnderTelemetry(t *testing.T) {
	env := ocean.CharlesRiver()
	d, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewLinkBudget(env, d)
	cfg := TrialConfig{
		Budget: b, RangeM: 200, Trials: 300,
		ChipsPerTrial: 392, Seed: 99,
	}
	bare, err := RunCell(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	Instrument(reg)
	defer Instrument(nil) // Instrument(nil) is a no-op; reset vars below
	defer func() {
		metTrials, metChips, metChipErrors = nil, nil, nil
		metLostFrames, metCells, metCellTime = nil, nil, nil
	}()
	instrumented, err := RunCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare != instrumented {
		t.Errorf("telemetry perturbed the cell:\n bare %+v\ninstr %+v", bare, instrumented)
	}
	if got := reg.Snapshot(); len(got) == 0 {
		t.Error("instrumented run recorded nothing")
	}
	var trials float64
	for _, s := range reg.Snapshot() {
		if s.Name == "vab_sim_trials_total" {
			trials = s.Value
		}
	}
	if trials != float64(cfg.Trials) {
		t.Errorf("vab_sim_trials_total = %g, want %d", trials, cfg.Trials)
	}
}
