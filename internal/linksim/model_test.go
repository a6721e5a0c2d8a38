package linksim

import (
	"math"
	"math/rand"
	"testing"

	"vab/internal/faults"
	"vab/internal/mac"
)

// TestZigguratTables pins the equal-area construction: every strip
// (including the tail-folding base) has area zigV, edges descend to 0 and
// the densities ascend to f(0) = 1.
func TestZigguratTables(t *testing.T) {
	if zigX[1] != zigR || zigX[128] != 0 || zigF[128] != 1 {
		t.Fatalf("anchors drifted: x1=%v x128=%v f128=%v", zigX[1], zigX[128], zigF[128])
	}
	for i := 1; i < 128; i++ {
		if zigX[i+1] >= zigX[i] {
			t.Fatalf("edges not descending at %d: %v >= %v", i, zigX[i+1], zigX[i])
		}
		// 1e-9: the published (R, V) pair carries ~11 digits, and strip 127
		// absorbs the closure error of pinning x[128] to exactly 0.
		area := zigX[i] * (zigF[i+1] - zigF[i])
		if math.Abs(area-zigV) > 1e-9 {
			t.Fatalf("strip %d area %v, want %v", i, area, zigV)
		}
	}
	// Base strip: rectangle area equals zigV with the tail mass folded in.
	if got := zigX[0] * zigF[1]; math.Abs(got-zigV) > 1e-12 {
		t.Fatalf("base strip area %v, want %v", got, zigV)
	}
}

// TestNormDistribution: the ziggurat must actually sample N(0, 1) —
// moments, symmetry and tail mass within Monte-Carlo tolerance, and the
// same stream seed must reproduce the same sequence.
func TestNormDistribution(t *testing.T) {
	const n = 2_000_000
	st := newStream(mix(0xace, 1))
	var sum, sum2, sum3 float64
	tail2, tail344 := 0, 0
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		x := st.norm()
		sum += x
		sum2 += x * x
		sum3 += x * x * x
		if math.Abs(x) > 2 {
			tail2++
		}
		if math.Abs(x) > zigR {
			tail344++
		}
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	skew := sum3 / n
	if math.Abs(mean) > 0.005 {
		t.Fatalf("mean %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.01 {
		t.Fatalf("variance %v, want ~1", variance)
	}
	if math.Abs(skew) > 0.02 {
		t.Fatalf("third moment %v, want ~0", skew)
	}
	// P(|X| > 2) = 4.55%; P(|X| > 3.4426) ≈ 5.76e-4 — the tail path must
	// fire and carry roughly the right mass.
	if f := float64(tail2) / n; math.Abs(f-0.0455) > 0.003 {
		t.Fatalf("P(|x|>2) = %v, want ≈ 0.0455", f)
	}
	if f := float64(tail344) / n; f < 2e-4 || f > 12e-4 {
		t.Fatalf("P(|x|>R) = %v, want ≈ 5.8e-4", f)
	}
	if min > -zigR || max < zigR {
		t.Fatalf("tail never exceeded ±R: min %v max %v", min, max)
	}

	// Reproducibility: same seed, same sequence.
	a, b := newStream(42), newStream(42)
	for i := 0; i < 1000; i++ {
		if a.norm() != b.norm() {
			t.Fatalf("draw %d diverged across identically-seeded streams", i)
		}
	}
}

// pollCellRef is the poll draw from a full resolved Cell: the reference
// for pollCell over a cachedCell.
func (m *cycleModel) pollCellRef(s *pollSeed, maxAttempts int, cell *Cell, out *mac.Outcome) {
	*out = mac.Outcome{}
	st, u := s.st, s.u
	for a := 0; a < maxAttempts; a++ {
		if a > 0 {
			st = newStream(faults.SplitMix64(s.prefix ^ uint64(a)))
			u = st.f64()
		}
		out.Attempts = int32(a + 1)
		if u >= cell.PDeliver {
			continue
		}
		out.Delivered = true
		out.SNRdB = cell.SNRMeanDB + cell.SNRStdDB*st.norm() + m.snrDelta
		return
	}
}

// TestCachedPollMatchesPollCell: a poll drawn from the 24-byte cache entry
// equals the draw from the full cell, bit for bit, for cells that never,
// sometimes and always deliver; the cell's CorrMean and DelayMs, which
// nothing draws from, may be anything.
func TestCachedPollMatchesPollCell(t *testing.T) {
	m := newCycleModel(DefaultTable(), 0, 0, 250)
	head := mix(31)
	for _, p := range []float64{0, 0.6, 1} {
		cell := Cell{PDeliver: p, SNRMeanDB: 11, SNRStdDB: 2.5, CorrMean: 8, DelayMs: 50}
		var cc cachedCell
		cc.setCell(&cell)
		for node := int32(0); node < 400; node++ {
			s := seedPoll(head, node, int(node)%7, node%5 == 0)
			var got, want mac.Outcome
			m.pollCell(&s, 3, &cc, &got)
			m.pollCellRef(&s, 3, &cell, &want)
			if got.Attempts != want.Attempts || got.Delivered != want.Delivered ||
				math.Float64bits(got.SNRdB) != math.Float64bits(want.SNRdB) {
				t.Fatalf("PDeliver %v node %d: cached %+v, full cell %+v", p, node, got, want)
			}
		}
	}
}

// sameCellBits reports whether two cells agree in every field, bit for bit.
func sameCellBits(a, b Cell) bool {
	return math.Float64bits(a.PDeliver) == math.Float64bits(b.PDeliver) &&
		math.Float64bits(a.SNRMeanDB) == math.Float64bits(b.SNRMeanDB) &&
		math.Float64bits(a.SNRStdDB) == math.Float64bits(b.SNRStdDB) &&
		math.Float64bits(a.CorrMean) == math.Float64bits(b.CorrMean) &&
		math.Float64bits(a.DelayMs) == math.Float64bits(b.DelayMs)
}

// TestResolveMatchesLookup: resolve, which reads the intensity bracket and
// the odds gain the cycle model computed once, equals the public path —
// Table.Lookup, then ShiftDelivery — bit for bit. Severities cover grid
// points, interior points and a clamped one past the axis; Δ covers the
// calibrated rate and a quarter of it; coordinates cover the deployment
// annulus, the grid's edges and beyond.
func TestResolveMatchesLookup(t *testing.T) {
	tab := DefaultTable()
	rng := rand.New(rand.NewSource(41))
	coords := make([]linkCoord, 0, 1200)
	for i := 0; i < 1000; i++ {
		coords = append(coords, tab.Resolve(rng.Float64()*1.5*rangeMaxM, (2*rng.Float64()-1)*1.5*maxOrientRad))
	}
	for _, r := range tab.RangesM {
		for _, o := range tab.OrientsRad {
			coords = append(coords, tab.Resolve(r, o), tab.Resolve(r, -o))
		}
	}
	checked := 0
	for env := range tab.Envs {
		for _, sev := range []float64{0, 0.3, 0.5, 0.8, 1, 1.4} {
			for _, chipRate := range []float64{0, tab.ChipRate / 4} {
				m := newCycleModel(tab, env, sev, chipRate)
				wantDelta := 0.0
				if chipRate > 0 {
					wantDelta = 10 * math.Log10(4)
				}
				if m.snrDelta != wantDelta {
					t.Fatalf("chip rate %g: Δ = %v dB, want %v", chipRate, m.snrDelta, wantDelta)
				}
				for _, c := range coords {
					want := tab.Lookup(env, c, sev)
					want.PDeliver = tab.ShiftDelivery(want.PDeliver, m.snrDelta)
					var got Cell
					m.resolve(&got, c)
					if !sameCellBits(got, want) {
						t.Fatalf("env %d severity %g Δ %g coord %+v: resolve %+v, Lookup+ShiftDelivery %+v",
							env, sev, m.snrDelta, c, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000*12 {
		t.Fatalf("only %d comparisons", checked)
	}
}
