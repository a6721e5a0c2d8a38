package benchmark

import (
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload end to end at reduced scale and
// checks that each reports every end-to-end metric, correctly.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name(), func(t *testing.T) {
			res, err := Run(Options{Workload: w.Name(), Seed: 3, Seconds: 0.3, Small: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(EndToEnd) {
				t.Fatalf("%d metrics, want %d: %v", len(res.Metrics), len(EndToEnd), res.Metrics)
			}
			for _, m := range EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.Name, v, ok, m.Unit)
				}
			}
		})
	}
}

// TestTracedRunSmoke runs the ladder and a traced workload at reduced
// scale and checks that every per-layer metric is reported.
func TestTracedRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder")
	}
	dir := t.TempDir()
	res, err := Run(Options{Workload: "ingest_bulk", Seed: 3, Seconds: 0.6, Trace: true, TraceDir: dir,
		Small: true, LadderSample: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("traced run failed its output checks")
	}
	if len(res.Metrics) != len(PerLayer) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(PerLayer))
	}
	for _, m := range PerLayer {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s = %+v (present %v), want a value in %s", m.Name, v, ok, m.Unit)
		}
	}
}
