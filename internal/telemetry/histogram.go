package telemetry

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution with a lock-free Observe path:
// one atomic add into the bucket the value falls in, one atomic add on the
// count and a CAS loop on the float64 sum. Bounds are upper bucket edges
// in ascending order (Prometheus `le` semantics); an implicit +Inf bucket
// catches everything above the last bound. A nil *Histogram is a valid
// noop.
type Histogram struct {
	help   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// DefBuckets spans 100 µs to ~100 s in half-decade steps — wide enough for
// both per-FFT timings and whole-experiment wall clocks.
func DefBuckets() []float64 {
	return ExpBuckets(1e-4, math.Sqrt(10), 13)
}

// ExpBuckets returns n log-spaced upper bounds starting at start and
// growing by factor: the log-bucketed layout the hot paths use (constant
// relative resolution across decades). start and factor must be positive
// with factor > 1; invalid arguments fall back to a single-bucket layout
// rather than panicking on the metrics path.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		return []float64{1}
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds start, start+width, … — for quantities
// like SNR in dB where log spacing makes no sense.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 || width <= 0 {
		return []float64{start}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

func newHistogram(help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	b := make([]float64, 0, len(bounds))
	for i, v := range bounds {
		if i > 0 && v <= b[len(b)-1] {
			continue // drop non-ascending bounds instead of panicking
		}
		b = append(b, v)
	}
	return &Histogram{
		help:   help,
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one value. NaN is dropped (a NaN sum would poison the
// whole series).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Binary search for the first bound >= v; short linear scan is faster
	// for the typical <20-bucket layouts but binary keeps worst case flat.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the per-bucket counts, sum and total count.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.Sum(), h.count.Load()
}
