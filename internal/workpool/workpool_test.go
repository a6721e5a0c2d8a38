package workpool

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunVisitsEveryIndexOnce checks coverage at every width, including
// widths above n and the empty batch.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		for _, w := range []int{0, 1, 2, 8, 100} {
			hits := make([]atomic.Int32, n)
			if err := Run(n, w, "test", func(i int) error {
				hits[i].Add(1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, w, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, w, i, got)
				}
			}
		}
	}
}

// TestRunInlineIsSerial pins the width-1 contract: index order on the
// caller's goroutine, stopping at the first error.
func TestRunInlineIsSerial(t *testing.T) {
	var order []int // unsynchronized on purpose: -race flags any goroutine
	err := Run(10, 1, "test", func(i int) error {
		order = append(order, i)
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("error %v, want stop", err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Fatalf("ran %v, want [0 1 2 3 4]", order)
	}
}

// TestRunParallelRunsEveryIndex checks that a failing task does not stop
// the pool: every index runs, and the lowest-index error wins.
func TestRunParallelRunsEveryIndex(t *testing.T) {
	var ran atomic.Int32
	err := Run(50, 4, "test", func(i int) error {
		ran.Add(1)
		if i%10 == 7 {
			return fmt.Errorf("task %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 7" {
		t.Fatalf("error %v, want task 7", err)
	}
	if ran.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", ran.Load())
	}
}

// TestRunLowestIndexError: panics and errors compete for the lowest index
// alike, and the winner is the same at every width — an error at index 5
// and a panic at index 2 give the index-2 panic, an error at index 1 beats
// a panic at index 6.
func TestRunLowestIndexError(t *testing.T) {
	failAt := func(panicAt, errAt int) func(int) error {
		return func(i int) error {
			switch i {
			case panicAt:
				panic("boom")
			case errAt:
				return errors.New("plain failure")
			}
			return nil
		}
	}
	for _, w := range []int{1, 2, 8} {
		err := Run(10, w, "boom_stage", failAt(2, 5))
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v, want a *PanicError", w, err)
		}
		if pe.Stage != "boom_stage" || pe.Index != 2 || pe.Value != "boom" {
			t.Fatalf("workers=%d: got stage %q index %d value %v", w, pe.Stage, pe.Index, pe.Value)
		}
		head, stack, _ := strings.Cut(err.Error(), "\n")
		if head != "boom_stage: index 2: panic: boom" {
			t.Fatalf("workers=%d: message %q", w, head)
		}
		if !strings.Contains(stack, "workpool_test.go") {
			t.Fatalf("workers=%d: stack does not reach the panicking task:\n%s", w, stack)
		}

		if err := Run(10, w, "test", failAt(6, 1)); err == nil || err.Error() != "plain failure" {
			t.Fatalf("workers=%d: error %v, want the index-1 error", w, err)
		}
	}
}

// TestNoOtherIndexClaimLoops keeps this package the only index-claiming
// worker pool: it fails if the claim idiom appears in any other non-test
// Go file of the main module. mac.Scheduler's block pool hands out spans
// over a channel and does not match.
func TestNoOtherIndexClaimLoops(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	skip := map[string]bool{
		filepath.Join(root, "internal", "workpool"):  true,
		filepath.Join(root, "internal", "benchmark"): true,
		filepath.Join(root, ".bench_build"):          true,
		filepath.Join(root, ".git"):                  true,
	}
	const idiom = ".Add(1)) - 1"
	var scanned int
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scanned++
		if strings.Contains(string(src), idiom) {
			rel, _ := filepath.Rel(root, path)
			t.Errorf("%s claims work indices by hand (%q); use workpool.Run", rel, idiom)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d Go files under %s; the walk is not covering the module", scanned, root)
	}
}
