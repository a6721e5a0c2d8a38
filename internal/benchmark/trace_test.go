package benchmark

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func findLayer(t *testing.T, lts []LayerTime, name string) LayerTime {
	t.Helper()
	for _, lt := range lts {
		if lt.Name == name {
			return lt
		}
	}
	t.Fatalf("no layer %q in %+v", name, lts)
	return LayerTime{}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(1e6)
	spans := []Span{
		{Name: "root", ID: 1, Trace: 1, Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50) once: 40 ms.
		{Name: "child", ID: 2, Parent: 1, Trace: 1, Start: 10 * ms, End: 40 * ms},
		{Name: "child", ID: 3, Parent: 1, Trace: 1, Start: 30 * ms, End: 50 * ms},
		// A child on another goroutine that outlives the parent counts
		// only for its overlap, [90, 100).
		{Name: "late", ID: 4, Parent: 1, Trace: 1, Start: 90 * ms, End: 130 * ms},
		// A grandchild covers half of child 2.
		{Name: "leaf", ID: 5, Parent: 2, Trace: 1, Start: 20 * ms, End: 35 * ms},
	}
	lts := SelfTimes(spans)
	if root := findLayer(t, lts, "root"); root.TotalMs != 100 || root.SelfMs != 50 || root.Count != 1 {
		t.Errorf("root = %+v, want total 100, self 50", root)
	}
	if child := findLayer(t, lts, "child"); child.TotalMs != 50 || child.SelfMs != 35 || child.Count != 2 {
		t.Errorf("child = %+v, want total 50, self 35", child)
	}
	if late := findLayer(t, lts, "late"); late.SelfMs != 40 {
		t.Errorf("late = %+v, want self 40", late)
	}
	if lts[0].Name != "root" {
		t.Errorf("layers not sorted by self time: %+v", lts)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	buf := tr.Buffer()
	sp := buf.Start("x", 1, 0)
	sp.link(2, 3)
	sp.End()
	if sp.ID() != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
}

func TestTracerWrite(t *testing.T) {
	tr := NewTracer()
	buf := tr.Buffer()
	root := buf.Start("bench.cycle", 1, 0)
	child := buf.StartID("linksim.RunCycle", pubSpanBit|7, 1, root.ID())
	child.End()
	root.End()
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.Write(path, "fleet_1m", 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "fleet_1m" || doc.Seed != 3 || len(doc.Spans) != 2 || len(doc.Layers) != 2 {
		t.Fatalf("trace file = %+v", doc)
	}
	if s := doc.Spans[1]; s.ID != pubSpanBit|7 || s.Parent != doc.Spans[0].ID || s.End < s.Start {
		t.Fatalf("child span = %+v, root %+v", s, doc.Spans[0])
	}
}
