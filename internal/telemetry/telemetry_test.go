package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	// Every operation on the nil handles must be safe.
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(-1)
	h.Observe(3)
	sp := StartSpan(h)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot must be nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("vab_test_total", "test counter")
	c.Inc()
	c.Add(41)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if again := r.Counter("vab_test_total", ""); again != c {
		t.Error("same name must return the same counter")
	}

	g := r.Gauge("vab_test_gauge", "test gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
}

func TestKindMismatchReturnsDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("name", "")
	g := r.Gauge("name", "")
	if g == nil {
		t.Fatal("mismatched kind must still return a usable metric")
	}
	g.Set(7) // must not corrupt the registered counter
	snaps := r.Snapshot()
	if len(snaps) != 1 || snaps[0].Kind != KindCounter {
		t.Errorf("registry corrupted by kind mismatch: %+v", snaps)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000, math.NaN()} {
		h.Observe(v)
	}
	counts, sum, count := h.snapshot()
	want := []uint64{2, 1, 1, 1} // ≤1: {0.5, 1}; ≤10: {2}; ≤100: {50}; +Inf: {1000}
	if len(counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if count != 5 {
		t.Errorf("count = %d, want 5 (NaN dropped)", count)
	}
	if sum != 1053.5 {
		t.Errorf("sum = %g, want 1053.5", sum)
	}
}

func TestExpAndLinearBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", b)
		}
	}
	l := LinearBuckets(-10, 5, 3)
	if l[0] != -10 || l[1] != -5 || l[2] != 0 {
		t.Fatalf("LinearBuckets = %v", l)
	}
	// Degenerate arguments must not panic and must stay usable.
	if len(ExpBuckets(-1, 2, 3)) == 0 || len(LinearBuckets(0, -1, 3)) == 0 {
		t.Error("degenerate bucket args must fall back, not vanish")
	}
}

func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "")
	g := r.Gauge("level", "")
	h := r.Histogram("obs", "", ExpBuckets(1e-3, 10, 6))
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%1000) / 100)
				// Snapshots race the writers on purpose: they must never
				// tear a value or crash.
				if i%500 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * per
	if c.Value() != total {
		t.Errorf("counter lost updates: %d != %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge lost updates: %g != %d", g.Value(), total)
	}
	counts, _, count := h.snapshot()
	if count != total {
		t.Errorf("histogram count %d != %d", count, total)
	}
	var bucketSum uint64
	for _, n := range counts {
		bucketSum += n
	}
	if bucketSum != count {
		t.Errorf("snapshot inconsistent at quiescence: buckets %d, count %d", bucketSum, count)
	}
}

func TestSpanObservesElapsed(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("t", "", nil)
	sp := StartSpan(h)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span recorded %d observations", h.Count())
	}
	if s := h.Sum(); s < 0.001 || s > 5 {
		t.Errorf("span sum %g implausible", s)
	}
}

func TestLabelMergesAndEscapes(t *testing.T) {
	if got := Label("m", "k", "v"); got != `m{k="v"}` {
		t.Errorf("Label = %s", got)
	}
	if got := Label(`m{a="1"}`, "b", "2"); got != `m{a="1",b="2"}` {
		t.Errorf("merged Label = %s", got)
	}
	if got := Label("m", "k", `a"b\c`); got != `m{k="a\"b\\c"}` {
		t.Errorf("escaped Label = %s", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("vab_frames_total", "frames").Add(3)
	r.Gauge("vab_subs", "subscribers").Set(2)
	h := r.Histogram(Label("vab_stage_seconds", "stage", "fft"), "timing", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE vab_frames_total counter",
		"vab_frames_total 3",
		"# TYPE vab_subs gauge",
		"vab_subs 2",
		"# TYPE vab_stage_seconds histogram",
		`vab_stage_seconds_bucket{stage="fft",le="1"} 1`,
		`vab_stage_seconds_bucket{stage="fft",le="10"} 1`,
		`vab_stage_seconds_bucket{stage="fft",le="+Inf"} 2`,
		`vab_stage_seconds_sum{stage="fft"} 20.5`,
		`vab_stage_seconds_count{stage="fft"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		i := 0.0
		for pb.Next() {
			h.Observe(i)
			i += 1e-5
		}
	})
}

func BenchmarkNilSpan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		StartSpan(nil).End()
	}
}
