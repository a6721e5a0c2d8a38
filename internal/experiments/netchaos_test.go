package experiments

import (
	"fmt"
	"sort"
	"testing"
)

// e14Curve extracts one arm's delivery curve, ordered by intensity.
func e14Curve(res *Result, arm string) []float64 {
	curve := make([]float64, len(e14Intensities))
	for i, in := range e14Intensities {
		curve[i] = res.Metrics[fmt.Sprintf("delivery_%s_%.2f", arm, in)]
	}
	return curve
}

// TestE14ResumeBeatsLiveOnly pins the campaign's headline properties:
// chaos-free delivery is perfect, delivery degrades under chaos, and the
// resume arm measurably beats live-only under faults.
func TestE14ResumeBeatsLiveOnly(t *testing.T) {
	res, err := Run("E14", Options{Trials: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || tableRows(res.Table) != 2*len(e14Intensities) {
		t.Fatalf("table rows = %d, want %d", tableRows(res.Table), 2*len(e14Intensities))
	}
	for _, arm := range []string{"off", "on"} {
		curve := e14Curve(res, arm)
		if curve[0] != 1 {
			t.Errorf("arm %s: chaos-free delivery %.4f, want exactly 1", arm, curve[0])
		}
		if last := curve[len(curve)-1]; last >= 1 {
			t.Errorf("arm %s: full chaos still delivers everything — schedule inert", arm)
		}
	}
	if gain := res.Metrics["resume_gain"]; gain <= 0.01 {
		t.Errorf("resume_gain = %.4f, want a measurable (>0.01) win", gain)
	}
	// The resume arm must dominate live-only at every faulted intensity:
	// with a shared storm schedule, recovery can only add deliveries.
	off, on := e14Curve(res, "off"), e14Curve(res, "on")
	for i := 1; i < len(off); i++ {
		if on[i] < off[i] {
			t.Errorf("intensity %.2f: resume %.4f below live-only %.4f", e14Intensities[i], on[i], off[i])
		}
	}
}

// TestE14Deterministic: identical Options must regenerate byte-identical
// artifacts, and the worker count must not leak into them.
func TestE14Deterministic(t *testing.T) {
	opts := Options{Trials: 800, Seed: 17}
	opts.Workers = 1
	a, err := Run("E14", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	b, err := Run("E14", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Errorf("tables diverge across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s",
			a.Table.CSV(), b.Table.CSV())
	}
	keys := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Metrics[k] != b.Metrics[k] {
			t.Errorf("metric %s: %v vs %v", k, a.Metrics[k], b.Metrics[k])
		}
	}
}

// TestE14OptIn: E14 resolves through Run but stays out of IDs()/RunAll so
// `-exp all` transcripts are untouched by its existence.
func TestE14OptIn(t *testing.T) {
	for _, id := range IDs() {
		if id == "E14" {
			t.Fatal("E14 leaked into the registry ID list")
		}
	}
	if _, err := Run("E14", Options{Trials: 50, Seed: 1}); err != nil {
		t.Fatalf("opt-in lookup failed: %v", err)
	}
}
