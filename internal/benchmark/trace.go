package benchmark

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// operation (a calibration table, a fleet cycle, a feed cycle and the
// readings it produced) share a Trace id; Parent is the span that caused
// this one (0 for a root).
type Span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// Tracer holds a run's spans in memory until Write. A nil *Tracer records
// nothing and reads no clock, so untraced runs pay one branch per call.
type Tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	bufs  []*SpanBuffer
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// SpanBuffer is one goroutine's span log: appends take no lock, so probes
// and the publisher do not contend on the tracer.
type SpanBuffer struct {
	t     *Tracer
	spans []Span
}

// Buffer registers a span log for one goroutine (nil on a nil tracer).
func (t *Tracer) Buffer() *SpanBuffer {
	if t == nil {
		return nil
	}
	b := &SpanBuffer{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// OpenSpan is a started span; End records it.
type OpenSpan struct {
	b    *SpanBuffer
	span Span
}

// Start opens a span with a fresh id.
func (b *SpanBuffer) Start(name string, trace, parent uint64) OpenSpan {
	if b == nil {
		return OpenSpan{}
	}
	return b.StartID(name, b.t.next.Add(1), trace, parent)
}

// StartID opens a span with a caller-chosen id, for spans another
// goroutine must be able to name as parent (a published reading's
// sequence number names its Publish span). Callers keep such ids apart
// from the counter's range.
func (b *SpanBuffer) StartID(name string, id, trace, parent uint64) OpenSpan {
	if b == nil {
		return OpenSpan{}
	}
	return OpenSpan{b: b, span: Span{Name: name, ID: id, Parent: parent, Trace: trace,
		Start: int64(time.Since(b.t.epoch))}}
}

// ID returns the span's id (0 for an inert span).
func (o OpenSpan) ID() uint64 { return o.span.ID }

// link sets the trace and parent of a span whose cause is known only
// once it ends (a probe learns which reading it received after Next).
func (o *OpenSpan) link(trace, parent uint64) { o.span.Trace, o.span.Parent = trace, parent }

// End closes the span and appends it to its buffer.
func (o OpenSpan) End() {
	if o.b == nil {
		return
	}
	o.span.End = int64(time.Since(o.b.t.epoch))
	o.b.spans = append(o.b.spans, o.span)
}

// Spans returns every recorded span ordered by start time. Call only once
// the goroutines owning the buffers have finished.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// LayerTime aggregates the spans of one name.
type LayerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// SelfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; children may
// run on other goroutines and outlive the parent, so only their overlap
// with the parent counts. Sorted by self time, largest first.
func SelfTimes(spans []Span) []LayerTime {
	children := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*LayerTime)
	for _, s := range spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			by[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]LayerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMs != out[j].SelfMs {
			return out[i].SelfMs > out[j].SelfMs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// traceFile is the document Write produces.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Layers   []LayerTime `json:"layers"`
	Spans    []Span      `json:"spans"`
	Dropped  int         `json:"spans_dropped"`
}

// maxFileSpans bounds the spans a trace file lists (the earliest ones):
// ingest_bulk records about 75k per second.
const maxFileSpans = 100_000

// Write stores the trace as JSON at path: per-layer self times over every
// span, and the earliest maxFileSpans spans themselves.
func (t *Tracer) Write(path, workload string, seed int64) error {
	spans := t.Spans()
	doc := traceFile{Workload: workload, Seed: seed, Layers: SelfTimes(spans), Spans: spans}
	if len(spans) > maxFileSpans {
		doc.Spans, doc.Dropped = spans[:maxFileSpans], len(spans)-maxFileSpans
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
