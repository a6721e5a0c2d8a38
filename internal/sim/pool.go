package sim

import (
	"fmt"
	"runtime"

	"vab/internal/workpool"
)

// RunCells executes a batch of independent Monte-Carlo cells on a bounded
// worker pool and returns the results in input order. Every cell carries
// its own seed and owns its RNG for the duration of the run, so the output
// is bit-identical to running the cells serially — the worker count only
// changes wall-clock time, never a single drawn sample. workers <= 0
// selects runtime.NumCPU(); workers == 1 runs inline with no goroutines.
//
// On error the lowest-index failure is returned (the same one a serial run
// would hit first), so error behavior is deterministic too. A panicking
// cell comes back as a *workpool.PanicError naming its index.
func RunCells(cfgs []TrialConfig, workers int) ([]CellResult, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers > 1 {
		metPoolWorkers.Set(float64(workers))
	}
	out := make([]CellResult, len(cfgs))
	err := workpool.Run(len(cfgs), workers, "mc_cell", func(i int) error {
		r, err := RunCell(cfgs[i])
		if err != nil {
			return fmt.Errorf("sim: cell %d: %w", i, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	if workers > 1 {
		metPoolCells.Add(int64(len(cfgs)))
	}
	return out, nil
}
