package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// chaosCurve extracts one arm's delivery curve, ordered by intensity.
func chaosCurve(res *Result, arm string) []float64 {
	curve := make([]float64, len(chaosIntensities))
	for i, in := range chaosIntensities {
		curve[i] = res.Metrics[fmt.Sprintf("delivery_%s_%.2f", arm, in)]
	}
	return curve
}

// TestE11DegradationAndRecovery pins the chaos campaign's two headline
// properties: delivery degrades monotonically as fault intensity rises,
// and the recovery stack measurably beats the bare stack under faults.
func TestE11DegradationAndRecovery(t *testing.T) {
	res, err := Run("E11", Options{Trials: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || tableRows(res.Table) != 2*len(chaosIntensities) {
		t.Fatalf("table rows = %d, want %d", tableRows(res.Table), 2*len(chaosIntensities))
	}

	for _, arm := range []string{"off", "on"} {
		curve := chaosCurve(res, arm)
		if curve[0] < 0.9 {
			t.Errorf("arm %s: fault-free delivery %.3f, want near-perfect", arm, curve[0])
		}
		for i := 1; i < len(curve); i++ {
			if curve[i] > curve[i-1]+1e-12 {
				t.Errorf("arm %s: delivery rose from %.4f to %.4f at intensity %.2f — not a degradation curve",
					arm, curve[i-1], curve[i], chaosIntensities[i])
			}
		}
		if last := curve[len(curve)-1]; last > 0.5 {
			t.Errorf("arm %s: full-intensity chaos still delivers %.3f — faults implausibly benign", arm, last)
		}
	}

	if gain := res.Metrics["recovery_gain"]; gain <= 0.02 {
		t.Errorf("recovery_gain = %.4f, want a measurable (>0.02) win for the recovery stack", gain)
	}
	if res.Metrics["mean_faulted_delivery_on"] <= res.Metrics["mean_faulted_delivery_off"] {
		t.Error("recovery arm did not beat the bare arm under faults")
	}
}

// TestE11Deterministic: identical Options must regenerate byte-identical
// artifacts, and the worker count must not leak into them.
func TestE11Deterministic(t *testing.T) {
	opts := Options{Trials: 6, Seed: 11, Faults: "shrimp+shadowing"}
	opts.Workers = 1
	a, err := Run("E11", opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	b, err := Run("E11", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Errorf("tables diverge across reruns:\n--- workers=1\n%s\n--- workers=4\n%s",
			a.Table.CSV(), b.Table.CSV())
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric sets differ: %d vs %d", len(a.Metrics), len(b.Metrics))
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

// TestE11OptIn: E11 resolves through Run but stays out of IDs()/RunAll so
// `-exp all` transcripts are untouched by its existence.
func TestE11OptIn(t *testing.T) {
	for _, id := range IDs() {
		if id == "E11" {
			t.Fatal("E11 leaked into the registry ID list")
		}
	}
	if _, err := Run("E11", Options{Trials: 2, Seed: 1, Faults: "brownout"}); err != nil {
		t.Fatalf("opt-in lookup failed: %v", err)
	}
	if _, err := Run("E11", Options{Trials: 2, Seed: 1, Faults: "krakens"}); err == nil ||
		!strings.Contains(err.Error(), "kraken") {
		t.Errorf("bad fault spec error = %v", err)
	}
}
