package linksim

import (
	"math"

	"vab/internal/faults"
	"vab/internal/mac"
)

// Deterministic draw machinery. Every poll outcome is a pure function of
// (fleet seed, node index, cycle, attempt): a faults.SplitMix64-seeded
// stream per attempt, the same construction internal/faults uses for its
// plans. No
// shared RNG state exists, so outcomes are independent of evaluation
// order, worker count and history — the property behind the tier's
// bit-identical-at-any-width contract.

// mix chains values through the mixer into one seed.
func mix(vals ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h = faults.SplitMix64(h ^ v)
	}
	return h
}

// drawStream is a tiny splitmix64-sequence PRNG: allocation-free and cheap
// enough to instantiate per poll attempt.
type drawStream struct{ s uint64 }

func newStream(seed uint64) drawStream { return drawStream{s: seed} }

func (d *drawStream) next() uint64 {
	d.s += 0x9e3779b97f4a7c15
	z := d.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a uniform draw in [0, 1) with 53-bit resolution.
func (d *drawStream) f64() float64 {
	return float64(d.next()>>11) / (1 << 53)
}

// Ziggurat tables for norm: 128 strips of equal area zigV under the
// standard normal density (Marsaglia–Tsang layout, float64 throughout).
// The delivered-poll path draws one normal per poll, so this is the
// fleet's hottest math — the ziggurat's common case is one PRNG word, two
// multiplies and a compare, where Box–Muller costs log+sqrt+cos per draw.
const (
	zigR = 3.442619855899      // right edge of strip 1: the tail threshold
	zigV = 9.91256303526217e-3 // common strip area (1/128 of unit mass, tail included)
)

var (
	zigX [129]float64 // strip right edges: x[1] = zigR, descending to x[128] = 0
	zigF [129]float64 // density at the edges: exp(-x²/2)
)

func init() {
	// Equal-area recurrence: strip i is [0, x_i] × [f(x_i), f(x_{i+1})],
	// so f(x_{i+1}) = f(x_i) + zigV/x_i. Strip 0 is the base rectangle
	// [0, x_0] × [0, f(R)] whose width x_0 = zigV/f(R) folds the tail mass
	// into the same area.
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f
	zigX[1] = zigR
	for i := 2; i < 128; i++ {
		f += zigV / zigX[i-1]
		zigX[i] = math.Sqrt(-2 * math.Log(f))
	}
	zigX[128] = 0
	for i := range zigX {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
}

// norm returns a standard normal draw via the ziggurat. One next() word
// supplies the strip index (bits 0–6), the sign (bit 7) and the uniform
// (bits 11–63); draws per call vary (rejection), which is fine — every
// (node, cycle, attempt) owns its stream, so outcomes stay pure functions
// of the stream seed.
func (d *drawStream) norm() float64 {
	for {
		u := d.next()
		i := int(u & 127)
		x := float64(u>>11) / (1 << 53) * zigX[i]
		if x < zigX[i+1] {
			// Wholly under the density: the rectangle up to x_{i+1} needs
			// no pdf evaluation (~98% of draws).
			return zigSigned(u, x)
		}
		if i == 0 {
			// Base strip beyond the threshold: sample the tail by
			// Marsaglia's exponential wrap.
			for {
				ex := -math.Log(d.f64()) / zigR
				ey := -math.Log(d.f64())
				if ey+ey > ex*ex {
					return zigSigned(u, zigR+ex)
				}
			}
		}
		// Wedge: uniform height within the strip, accept under the pdf.
		if zigF[i]+d.f64()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return zigSigned(u, x)
		}
	}
}

// zigSigned applies the sign bit (bit 7) of the strip-selection word.
func zigSigned(u uint64, x float64) float64 {
	if u&128 != 0 {
		return -x
	}
	return x
}

// cycleModel snapshots everything a cycle's draws depend on: the per-cycle
// fault severity, the rate-controller command translated into an SNR
// delta, and the resolved calibration slice. Built once per cycle on the
// caller's goroutine, then read-only across the scheduler's blocks.
type cycleModel struct {
	table    *Table
	severity float64 // fault severity on the table's intensity axis
	snrDelta float64 // dB shift from the commanded chip rate vs calibration
	chipRate float64 // the commanded rate itself (hero systems retune to it)

	// Lookup constants, computed once so resolve needs neither a binary
	// search nor an exponential per node: the severity's bracket on the
	// intensity axis, and the rate shift's odds gain e^{LogisticK·snrDelta}.
	span     intensitySpan
	oddsGain float64
}

// newCycleModel builds the model of a cycle at the given fault severity
// and commanded chip rate (0 = the table's calibrated rate).
func newCycleModel(t *Table, env int, severity, chipRate float64) cycleModel {
	m := cycleModel{table: t, severity: severity, chipRate: t.ChipRate}
	if chipRate > 0 {
		m.chipRate = chipRate
		m.snrDelta = 10 * math.Log10(t.ChipRate/chipRate)
	}
	m.span = t.bracketIntensity(env, severity)
	m.oddsGain = math.Exp(t.LogisticK * m.snrDelta)
	return m
}

// resolve interpolates a node's calibration cell into cell under this
// cycle's model parameters, with PDeliver replaced by its rate-command
// shift: the cell this cycle's draws and the hero check see, bit for bit
// the reference Lookup then ShiftDelivery in table_test.go. Pure in the
// model and coordinate, so resolved cells are cacheable across cycles
// whose (severity, snrDelta) match.
func (m *cycleModel) resolve(cell *Cell, coord linkCoord) {
	m.table.lookupAt(cell, coord, &m.span)
	if m.snrDelta != 0 {
		cell.PDeliver = shiftOdds(cell.PDeliver, m.oddsGain)
	}
}

// pollSeed is a poll's draw state up to its first delivery uniform: the
// seed chain every attempt's stream derives from, and attempt 0's stream
// just after drawing u.
type pollSeed struct {
	prefix uint64
	st     drawStream
	u      float64
}

// seedPoll starts one node's poll for a cycle: pass 1 of the two-pass draw.
// It depends only on (head, node, cycle, probe), so a block computes it
// for a chunk of polls at once and the chains pipeline. probe attempts use
// a distinct stream domain so a probe never replays the draw of a regular
// poll of the same (node, cycle).
//
// Attempt a's stream seed is mix(seedBase, domain|node, cycle, a). mix is
// a chain h = SplitMix64(h ^ v), so the chain through (domain|node, cycle)
// is computed once per poll from head = mix(seedBase), leaving one
// SplitMix64 per attempt; the seeds are the same bits.
func seedPoll(head uint64, node int32, cycle int, probe bool) pollSeed {
	domain := uint64(0)
	if probe {
		domain = 1 << 40
	}
	s := pollSeed{prefix: faults.SplitMix64(faults.SplitMix64(head^(domain|uint64(uint32(node)))) ^ uint64(cycle))}
	s.st = newStream(faults.SplitMix64(s.prefix))
	s.u = s.st.f64()
	return s
}

// pollCell finishes a poll started by seedPoll from a resolved cell (see
// resolve) and writes the outcome to out: pass 2 of the two-pass draw,
// everything that depends on the first delivery uniform. Up to
// maxAttempts independent attempts (the MAC retry budget) each draw from
// their own seeded stream; the first that delivers draws its SNR. The
// outcome goes through a pointer into the Chunk's fold: returned by
// value, it is built field by field on the stack and then copied in wider
// moves, which stall on store forwarding.
func (m *cycleModel) pollCell(s *pollSeed, maxAttempts int, cell *cachedCell, out *mac.Outcome) {
	*out = mac.Outcome{}
	st, u := s.st, s.u
	for a := 0; a < maxAttempts; a++ {
		if a > 0 {
			st = newStream(faults.SplitMix64(s.prefix ^ uint64(a)))
			u = st.f64()
		}
		out.Attempts = int32(a + 1)
		if u >= cell.pDeliver {
			continue // this attempt timed out
		}
		out.Delivered = true
		out.SNRdB = cell.snrMeanDB + cell.snrStdDB*st.norm() + m.snrDelta
		return
	}
}
