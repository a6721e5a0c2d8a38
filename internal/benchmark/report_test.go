package benchmark

import (
	"bytes"
	"strings"
	"testing"
)

func record(workload string, metrics map[string]RecordMetric) Record {
	return Record{Workload: workload, Seed: 1, Seconds: 10, Correct: true, Attempted: 10, Metrics: metrics}
}

func rm(v, lo, hi float64, unit string) RecordMetric {
	return RecordMetric{Summary: Summary{Value: v, Lo: lo, Hi: hi, N: 5}, Unit: unit}
}

// TestCompareNeedsBoundAndSpread: a row is flagged only when it is worse
// by more than the metric's bound and its spread clears the old spread.
func TestCompareNeedsBoundAndSpread(t *testing.T) {
	old := []Record{record("fleet_1m", map[string]RecordMetric{
		"op_p50_ms":            rm(100, 95, 105, "ms"),
		"op_tail_ms":           rm(100, 95, 105, "ms"),
		"live_heap_mb":         rm(100, 100, 100, "MB"),
		"linksim.pool_speedup": rm(2, 1.9, 2.1, "x"),
	})}
	cur := []Record{record("fleet_1m", map[string]RecordMetric{
		"op_p50_ms":            rm(130, 128, 135, "ms"), // beyond both: flagged
		"op_tail_ms":           rm(130, 100, 140, "ms"), // within the old spread
		"live_heap_mb":         rm(108, 108, 108, "MB"), // within the 10 % bound
		"linksim.pool_speedup": rm(1.5, 1.4, 1.6, "x"),  // higher is better: flagged
	})}
	var out bytes.Buffer
	regs := Compare(&out, old, cur)
	got := map[string]bool{}
	for _, r := range regs {
		got[r.Metric] = true
	}
	if len(regs) != 2 || !got["op_p50_ms"] || !got["linksim.pool_speedup"] {
		t.Fatalf("flagged %+v\n%s", regs, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("no row marked:\n%s", out.String())
	}
}

func TestWriteMarkdown(t *testing.T) {
	var out bytes.Buffer
	WriteMarkdown(&out, []Record{record("ingest_bulk", map[string]RecordMetric{
		"op_p50_ms": rm(1.3, 1.2, 1.4, "ms"),
		"setup_s":   rm(0.01, 0.009, 0.02, "s"),
	})})
	s := out.String()
	// End-to-end metrics in declaration order, each with its spread.
	setup, p50 := strings.Index(s, "`setup_s`"), strings.Index(s, "`op_p50_ms`")
	if setup < 0 || p50 < setup || !strings.Contains(s, "| `op_p50_ms` | 1.3 | ms | 1.2–1.4 | 5 |") {
		t.Fatalf("unexpected table:\n%s", s)
	}
}
