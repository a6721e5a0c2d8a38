package mac

import "testing"

// pending counts calendared entries across the wheel and overflow.
func (w *probeWheel) pending() int {
	n := len(w.overflow)
	for _, b := range w.buckets {
		n += len(b)
	}
	return n
}

// TestProbeWheelBasics pins the wheel's scheduling semantics: ascending
// take order regardless of insertion order, bucket recycling, past-due
// clamping, and the pending() inventory.
func TestProbeWheelBasics(t *testing.T) {
	w := newProbeWheel(16)
	w.schedule(9, 5, 0)
	w.schedule(3, 5, 0)
	w.schedule(7, 5, 0)
	w.schedule(1, 6, 0)
	if got := w.pending(); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
	if got := w.take(4); len(got) != 0 {
		t.Fatalf("cycle 4 due %v, want none", got)
	}
	got := w.take(5)
	want := []int32{3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("cycle 5 due %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle 5 due %v, want ascending %v", got, want)
		}
	}
	if got := w.take(6); len(got) != 1 || got[0] != 1 {
		t.Fatalf("cycle 6 due %v, want [1]", got)
	}
	if got := w.pending(); got != 0 {
		t.Fatalf("pending after drain = %d, want 0", got)
	}

	// A due at or before `now` is clamped to now+1, never lost in an
	// already-consumed bucket.
	w.schedule(4, 6, 6)
	if got := w.take(7); len(got) != 1 || got[0] != 4 {
		t.Fatalf("clamped due %v, want [4] at cycle 7", got)
	}

	// Steady-state reschedule into a recycled bucket must not allocate.
	w.schedule(2, 9, 8)
	w.take(9)
	allocs := testing.AllocsPerRun(100, func() {
		w.schedule(2, 17, 16)
		w.take(17)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/take allocates %.1f/op, want 0", allocs)
	}
}

// TestProbeWheelOverflow pins the far-future path: entries beyond the
// wheel span ride the overflow list and surface exactly when due, merged
// in ascending order with the bucket of the same cycle.
func TestProbeWheelOverflow(t *testing.T) {
	w := newProbeWheel(16) // 32 buckets
	span := w.mask
	far := span + 100
	w.schedule(5, far, 0)
	w.schedule(2, far, 0)
	w.schedule(8, far+1, 0)
	if got := w.pending(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	for c := 1; c < far; c++ {
		if c == far-2 {
			// An in-wheel entry landing on the same cycle as the overflow
			// drain (scheduled once `far` is within the span).
			w.schedule(3, far, c)
		}
		if got := w.take(c); len(got) != 0 {
			t.Fatalf("cycle %d due %v, want none before the far due", c, got)
		}
	}
	got := w.take(far)
	want := []int32{2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("cycle %d due %v, want %v", far, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cycle %d due %v, want %v", far, got, want)
		}
	}
	if got := w.take(far + 1); len(got) != 1 || got[0] != 8 {
		t.Fatalf("cycle %d due %v, want [8]", far+1, got)
	}
	if got := w.pending(); got != 0 {
		t.Fatalf("pending after overflow drain = %d, want 0", got)
	}
}
