package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vab/internal/benchmark"
)

func writeRecord(t *testing.T, dir, name string, p50 benchmark.Summary) string {
	t.Helper()
	rec := benchmark.Record{Workload: "fleet_1m", Seed: 1, Seconds: 10, Correct: true, Attempted: 100,
		Metrics: map[string]benchmark.RecordMetric{"op_p50_ms": {Summary: p50, Unit: "ms"}}}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareExitCode: --compare exits nonzero exactly when a row is
// flagged, so a script can gate on it.
func TestCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	old := writeRecord(t, dir, "old.json", benchmark.Summary{Value: 100, Lo: 95, Hi: 105, N: 5})
	same := writeRecord(t, dir, "same.json", benchmark.Summary{Value: 102, Lo: 96, Hi: 106, N: 5})
	worse := writeRecord(t, dir, "worse.json", benchmark.Summary{Value: 150, Lo: 140, Hi: 160, N: 5})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--compare", old, same}, &stdout, &stderr); code != 0 {
		t.Fatalf("unchanged: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"--compare", old, worse}, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed: exit %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") || !strings.Contains(stderr.String(), "1 metric(s) regressed") {
		t.Fatalf("regression not reported:\n%s%s", stdout.String(), stderr.String())
	}
}
