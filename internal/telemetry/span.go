package telemetry

import "time"

// Span times one region of code into a histogram of seconds. The zero
// Span (and any span started against a nil histogram) is inert: no clock
// read on start, no observation on End. Spans are values, so tracing a
// pipeline costs no allocation:
//
//	sp := telemetry.StartSpan(fftSeconds)
//	... work ...
//	sp.End()
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing into h. A nil h returns the inert zero Span
// without reading the clock — the disabled path is a single branch.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed seconds. Safe to call on the zero Span and safe
// to call more than once (each call records from the same start).
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Seconds())
}
