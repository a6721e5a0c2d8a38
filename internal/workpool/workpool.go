// Package workpool runs batches of independent, index-addressed tasks on a
// bounded worker pool. It is the one pool behind every deterministic batch
// runner in the repo — Monte-Carlo cells, MAC poll waves, calibration
// cells and experiment batches — so each of them gives the same output and
// the same error at any worker count.
package workpool

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) and returns the lowest-index error.
//
// workers <= 1 runs inline on the caller's goroutine in index order and
// stops at the first error. A larger width is clamped to n; each worker
// claims indices from one atomic counter under the pprof label
// vab_stage=stage (`go tool pprof -tags` splits on it), every index runs,
// and the lowest-index error is returned — the one the inline path stops
// at. fn must therefore write only state owned by index i.
//
// A panic in fn(i) is recovered on both paths and returned as a
// *PanicError for index i; lowest-index selection treats it like any other
// error, so a crashing task fails the batch the same way at every width.
func Run(n, workers int, stage string, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := call(stage, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		lowest = n
		first  error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// One label set per worker, not per task: label sets allocate.
			pprof.Do(context.Background(), pprof.Labels("vab_stage", stage), func(context.Context) {
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := call(stage, i, fn); err != nil {
						mu.Lock()
						if i < lowest {
							lowest, first = i, err
						}
						mu.Unlock()
					}
				}
			})
		}()
	}
	wg.Wait()
	return first
}

// PanicError is a panic recovered from one task of a Run batch.
type PanicError struct {
	Stage string // the batch's pprof stage label
	Index int    // the task that panicked
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: index %d: panic: %v\n%s", e.Stage, e.Index, e.Value, e.Stack)
}

// call runs one task, turning a panic into a *PanicError.
func call(stage string, i int, fn func(int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Stage: stage, Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
