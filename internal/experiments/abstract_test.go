package experiments

import (
	"strings"
	"testing"
)

// TestE12AbstractFleet runs a short abstract-tier campaign and pins the
// headline shape: a populated per-cycle table, a working-band delivery
// ratio, hero cross-checks recorded every cycle, and divergence inside
// the documented budget.
func TestE12AbstractFleet(t *testing.T) {
	res, err := Run("E12", Options{Trials: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table == nil || tableRows(res.Table) != 4 {
		t.Fatalf("table rows = %d, want 4", tableRows(res.Table))
	}
	ratio := res.Metrics["delivery_ratio"]
	if ratio < 0.3 || ratio > 1 {
		t.Fatalf("delivery_ratio = %.3f, outside the plausible fleet band", ratio)
	}
	if got := res.Metrics["hero_checks"]; got != 8 {
		t.Fatalf("hero_checks = %g, want 2 per cycle × 4 cycles", got)
	}
	if frac := res.Metrics["hero_divergence_frac"]; frac > 0.2 {
		t.Fatalf("hero_divergence_frac = %.2f, outside the 0.2 budget", frac)
	}
	if len(res.Notes) < 2 {
		t.Fatalf("notes missing: %v", res.Notes)
	}
}

// TestE12Deterministic: the worker count must not leak into the artifact —
// the property the CI abstract-tier cmp leg checks end-to-end via vabsim.
func TestE12Deterministic(t *testing.T) {
	a, err := Run("E12", Options{Trials: 3, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("E12", Options{Trials: 3, Seed: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.CSV() != b.Table.CSV() {
		t.Fatalf("E12 tables diverge across worker counts:\n--- w1\n%s\n--- w8\n%s",
			a.Table.CSV(), b.Table.CSV())
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Fatalf("metric %s: %v vs %v", k, v, b.Metrics[k])
		}
	}
}

// TestE12OptIn: E12 stays out of IDs()/RunAll so the committed `-exp all`
// transcripts are untouched by its existence.
func TestE12OptIn(t *testing.T) {
	for _, id := range IDs() {
		if id == "E12" {
			t.Fatal("E12 leaked into the registry ID list")
		}
	}
	if _, err := Run("E12", Options{Trials: 2, Seed: 1, Faults: "krakens"}); err == nil ||
		!strings.Contains(err.Error(), "kraken") {
		t.Errorf("bad fault spec error = %v", err)
	}
}

// TestDescribe: the `-exp list` inventory covers the default registry in
// order plus the opt-ins, one line each.
func TestDescribe(t *testing.T) {
	lines := Describe()
	if len(lines) != len(IDs())+len(ids(true)) {
		t.Fatalf("%d description lines for %d experiments + %d opt-ins", len(lines), len(IDs()), len(ids(true)))
	}
	for i, id := range IDs() {
		if !strings.HasPrefix(lines[i], id+" ") {
			t.Fatalf("line %d = %q, want it to lead with %s", i, lines[i], id)
		}
	}
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"E11", "E12", "E13", "E14", "abstract-tier"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("inventory missing %q:\n%s", want, joined)
		}
	}
}
