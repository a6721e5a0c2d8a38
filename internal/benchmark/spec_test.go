package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const specPath = "../../BENCHMARK.json"

// TestSpecMatchesHarness pins BENCHMARK.json to what the harness measures:
// the same workloads with the same reasons, and the same metrics with the
// same units, directions and bounds, in the same order.
func TestSpecMatchesHarness(t *testing.T) {
	s, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(Workloads) {
		t.Fatalf("spec has %d workloads, harness %d", len(s.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if s.Workloads[i] != (SpecWorkload{Name: w.Name(), Why: w.Why()}) {
			t.Errorf("workload %d: spec %+v, harness %s: %q", i, s.Workloads[i], w.Name(), w.Why())
		}
	}
	if len(s.EndToEnd) != len(EndToEnd) {
		t.Fatalf("spec has %d end-to-end metrics, harness %d", len(s.EndToEnd), len(EndToEnd))
	}
	for i, m := range EndToEnd {
		if s.EndToEnd[i] != m {
			t.Errorf("end-to-end %d: spec %+v, harness %+v", i, s.EndToEnd[i], m)
		}
	}
	if len(s.PerLayer) != len(PerLayer) {
		t.Fatalf("spec has %d per-layer metrics, harness %d", len(s.PerLayer), len(PerLayer))
	}
	for i, m := range PerLayer {
		if s.PerLayer[i] != m.Metric {
			t.Errorf("per-layer %d: spec %+v, harness %+v", i, s.PerLayer[i], m.Metric)
		}
	}
	for _, p := range s.Paths {
		if p == "internal/benchmark" {
			return
		}
	}
	t.Errorf("paths %v do not cover the benchmark directory", s.Paths)
}

// TestPerLayerMapping checks that every per-layer metric names the
// end-to-end metric and the workload it should move (or, for a
// diagnostic, says what it checks), and belongs to a known layer.
func TestPerLayerMapping(t *testing.T) {
	e2e := map[string]bool{"failed": true}
	for _, m := range EndToEnd {
		e2e[m.Name] = true
	}
	workloads := map[string]bool{}
	for _, w := range Workloads {
		workloads[w.Name()] = true
	}
	layers := map[string]bool{"phy": true, "feed": true, "telemetry": true, "workload": true}
	for _, r := range rungs {
		layers[r.layer] = true
	}
	for _, m := range PerLayer {
		layer, _, _ := strings.Cut(m.Name, ".")
		if !layers[layer] {
			t.Errorf("%s: unknown layer %q", m.Name, layer)
		}
		if m.Moves == "" {
			if m.Why == "" || m.Workload != "" {
				t.Errorf("%s: a diagnostic needs a Why and no workload", m.Name)
			}
			continue
		}
		if !e2e[m.Moves] {
			t.Errorf("%s: moves unknown end-to-end metric %q", m.Name, m.Moves)
		}
		if !workloads[m.Workload] {
			t.Errorf("%s: moves %s on unknown workload %q", m.Name, m.Moves, m.Workload)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	base, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		wreck func(s *Spec)
		want  string
	}{
		{"name charset", func(s *Spec) { s.EndToEnd[2].Name = "op p50" }, "bad name"},
		{"leading underscore", func(s *Spec) { s.PerLayer[0].Name = "_dsp" }, "bad name"},
		{"duplicate name", func(s *Spec) { s.PerLayer[1].Name = s.PerLayer[0].Name }, "used twice"},
		{"missing unit", func(s *Spec) { s.PerLayer[0].Unit = "" }, "bad unit"},
		{"unit charset", func(s *Spec) { s.PerLayer[0].Unit = "µs" }, "bad unit"},
		{"direction", func(s *Spec) { s.EndToEnd[0].Better = "smaller" }, "better must be"},
		{"bound too large", func(s *Spec) { s.EndToEnd[1].Bound = 0.3 }, "bound"},
		{"missing bound", func(s *Spec) { s.EndToEnd[1].Bound = 0 }, "bound"},
		{"per-layer bound", func(s *Spec) { s.PerLayer[0].Bound = 0.1 }, "has a bound"},
		{"no setup_s", func(s *Spec) { s.EndToEnd[0].Name = "setup_ms" }, "setup_s"},
		{"one workload", func(s *Spec) { s.Workloads = s.Workloads[:1] }, "workloads"},
		{"multi-line why", func(s *Spec) { s.Workloads[0].Why = "a\nb" }, "one line"},
		{"run seconds", func(s *Spec) { s.RunSeconds = 61 }, "run_seconds"},
		{"absolute path", func(s *Spec) { s.Paths = []string{"/benchmark"} }, "bad path"},
		{"escaping command", func(s *Spec) { s.Command = []string{"bash", "../run.sh"} }, "leaves the repository"},
	}
	for _, c := range cases {
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		c.wreck(&s)
		err = s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}

func TestLoadSpecRejectsUnknownKeys(t *testing.T) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(data), `"run_seconds"`, `"extra": 1, "run_seconds"`, 1)
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Fatal("an unknown key was accepted")
	}
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []SpecWorkload `json:"workloads"`
	EndToEnd   []Metric       `json:"end_to_end"`
	PerLayer   []Metric       `json:"per_layer"`
}

// SpecWorkload is one BENCHMARK.json workload entry.
type SpecWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// LoadSpec reads and validates a BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) > 64<<10 {
		return nil, fmt.Errorf("%s: %d bytes, limit 64 KiB", path, len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// Validate checks the file's limits: counts, name and unit charsets,
// directions, bounds, and the required setup_s metric.
func (s *Spec) Validate() error {
	if n := len(s.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range s.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is too long or leaves the repository", c)
		}
	}
	if n := len(s.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("bad path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range append(append([]Metric(nil), s.EndToEnd...), s.PerLayer...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", m.Name, m.Better)
		}
		endToEnd := i < len(s.EndToEnd)
		if endToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
			return fmt.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if !endToEnd && m.Bound != 0 {
			return fmt.Errorf("per-layer metric %s has a bound", m.Name)
		}
		if m.Name == "setup_s" {
			setup = endToEnd && m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end must contain setup_s in s, lower is better")
	}
	return nil
}
