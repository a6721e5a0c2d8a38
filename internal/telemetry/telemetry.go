// Package telemetry is the observability layer of the VAB stack: a
// zero-dependency metrics registry (atomic counters, gauges and
// log-bucketed histograms), lightweight span timers for tracing a system
// round through its pipeline stages, and an HTTP ops endpoint exposing
// Prometheus text format, health and pprof.
//
// The package is noop-by-default: every constructor accepts a nil
// *Registry and returns nil metrics, and every method is safe to call on a
// nil receiver at negligible cost (a single pointer test, no time.Now, no
// allocation). Instrumented packages therefore carry their metric handles
// unconditionally and pay nothing until an operator opts in with an actual
// registry — seeded experiment outputs and the hot DSP paths are
// bit-identical either way.
//
// Metric names follow Prometheus conventions (`vab_<subsystem>_<what>_<unit>`)
// and may embed label pairs directly: Label("x_seconds", "stage", "fft")
// yields `x_seconds{stage="fft"}`, which the exposition layer merges into
// well-formed series.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots and exposition.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a valid noop.
type Counter struct {
	help string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters only go
// up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits with
// lock-free updates. A nil *Gauge is a valid noop.
type Gauge struct {
	help string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metric is the union the registry stores.
type metric struct {
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics. All methods are safe for concurrent use
// and safe on a nil receiver (returning nil metrics), which is how the
// default-off contract propagates through the stack.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil when r is nil. If name is already registered as a
// different kind, a detached (unregistered but functional) counter is
// returned rather than corrupting the exposition.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind == KindCounter {
			return m.c
		}
		return &Counter{help: help}
	}
	c := &Counter{help: help}
	r.metrics[name] = metric{kind: KindCounter, c: c}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Nil-registry and kind-mismatch behavior match Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind == KindGauge {
			return m.g
		}
		return &Gauge{help: help}
	}
	g := &Gauge{help: help}
	r.metrics[name] = metric{kind: KindGauge, g: g}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given upper bucket bounds on first use (nil bounds → DefBuckets).
// Nil-registry and kind-mismatch behavior match Counter.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind == KindHistogram {
			return m.h
		}
		return newHistogram(help, bounds)
	}
	h := newHistogram(help, bounds)
	r.metrics[name] = metric{kind: KindHistogram, h: h}
	return h
}

// labelEscaper escapes label values per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders name{k="v"}, merging into an existing label set when name
// already carries one. Values are escaped per the Prometheus text format.
func Label(name, k, v string) string {
	esc := labelEscaper.Replace(v)
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return fmt.Sprintf(`%s,%s="%s"}`, name[:len(name)-1], k, esc)
	}
	return fmt.Sprintf(`%s{%s="%s"}`, name, k, esc)
}

// splitName separates a possibly-labeled series name into the bare metric
// name and the inner label list ("" when unlabeled).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// Snapshot is a point-in-time copy of one metric.
type Snapshot struct {
	Name  string
	Help  string
	Kind  Kind
	Value float64 // counter/gauge value; histograms use the fields below

	// Histogram-only fields. Counts are per-bucket (non-cumulative),
	// aligned with Bounds; the final slot counts observations above the
	// last bound.
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot copies every registered metric, sorted by name. Safe on nil
// (returns nil). Each scalar is read atomically; histogram buckets are
// read individually, so a snapshot taken mid-hammer may straddle
// concurrent observations but never tears a single value.
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	ms := make([]metric, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		ms = append(ms, r.metrics[n])
	}
	r.mu.Unlock()

	out := make([]Snapshot, 0, len(names))
	for i, m := range ms {
		s := Snapshot{Name: names[i], Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Help = m.c.help
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Help = m.g.help
			s.Value = m.g.Value()
		case KindHistogram:
			s.Help = m.h.help
			s.Bounds = m.h.bounds
			s.Counts, s.Sum, s.Count = m.h.snapshot()
		}
		out = append(out, s)
	}
	return out
}
