package benchmark

import (
	"math"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Fatal("Percentile sorted its input in place")
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty sample should give NaN")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{9, 1, 5}); m != 5 {
		t.Fatalf("median %g, want 5", m)
	}
	if m := Median([]float64{1, 2}); m != 1.5 {
		t.Fatalf("even-length median %g, want 1.5", m)
	}
}

func TestSummarizeAndBlocked(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.Value != 2 || s.Lo != 1 || s.Hi != 3 || s.N != 3 {
		t.Fatalf("Summarize = %+v", s)
	}
	// Ten samples in two regimes: the blocks' medians bracket the whole.
	xs := []float64{1, 1, 1, 1, 1, 9, 9, 9, 9, 9}
	b := Blocked(xs, 2, Median)
	if b.Value != 5 || b.Lo != 1 || b.Hi != 9 || b.N != 10 {
		t.Fatalf("Blocked = %+v", b)
	}
	// Too few samples for blocks: the spread collapses to the value.
	if b := Blocked([]float64{2, 4}, 5, Median); b.Lo != 3 || b.Hi != 3 {
		t.Fatalf("Blocked on a short sample = %+v", b)
	}
}
