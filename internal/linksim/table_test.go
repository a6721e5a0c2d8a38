package linksim

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// CellAt returns the raw cell at exact grid coordinates.
func (t *Table) CellAt(env, intensity, orient, rng int) Cell {
	return t.Cells[t.cellIndex(env, intensity, orient, rng)]
}

// Lookup is the reference cell interpolation resolve must match: the
// intensity bracketed per call, then lookupAt.
func (t *Table) Lookup(env int, c linkCoord, intensity float64) Cell {
	s := t.bracketIntensity(env, intensity)
	var cell Cell
	t.lookupAt(&cell, c, &s)
	return cell
}

// ShiftDelivery is the reference rate-command shift resolve must match:
// identity at Δ = 0, else shiftOdds with the odds gain computed per call.
func (t *Table) ShiftDelivery(p, deltaDB float64) float64 {
	if deltaDB == 0 {
		return p
	}
	return shiftOdds(p, math.Exp(t.LogisticK*deltaDB))
}

// randomTable builds a structurally valid table with random axes and cell
// statistics — the generator behind the round-trip property test.
func randomTable(rng *rand.Rand) *Table {
	axis := func(n int, lo, step float64) []float64 {
		out := make([]float64, n)
		v := lo
		for i := range out {
			v += step * (0.5 + rng.Float64())
			out[i] = v
		}
		return out
	}
	nE := 1 + rng.Intn(2)
	nR := 2 + rng.Intn(4)
	nO := 1 + rng.Intn(3)
	nI := 1 + rng.Intn(3)
	t := &Table{
		FormatVersion: TableFormatVersion,
		Scenario:      "chaos",
		Seed:          rng.Int63(),
		RoundsPerCell: 1 + rng.Intn(100),
		ChipRate:      125 * float64(1+rng.Intn(4)),
		SourceLevelDB: 170 + 20*rng.Float64(),
		Envs:          []string{"river", "ocean"}[:nE],
		RangesM:       axis(nR, 10, 40),
		OrientsRad:    axis(nO, 0, 0.3),
		Intensities:   axis(nI, 0, 0.2),
		LogisticK:     0.05 + rng.Float64(),
		LogisticSNR50: -10 + 40*rng.Float64(),
	}
	// Intensities must stay in [0, 1].
	for i := range t.Intensities {
		if t.Intensities[i] > 1 {
			t.Intensities[i] = 1 - float64(len(t.Intensities)-1-i)*1e-3
		}
	}
	t.Cells = make([]Cell, nE*nI*nO*nR)
	for i := range t.Cells {
		t.Cells[i] = Cell{
			PDeliver:  rng.Float64(),
			SNRMeanDB: -20 + 60*rng.Float64(),
			SNRStdDB:  rng.Float64() * 5,
			CorrMean:  rng.Float64() * 10,
			DelayMs:   rng.Float64() * 500,
		}
	}
	return t
}

// TestTableRoundTripProperty: Encode→Decode is the identity on valid
// tables, across 50 randomly generated grids.
func TestTableRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		orig := randomTable(rng)
		if err := orig.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid table: %v", trial, err)
		}
		data, err := orig.Encode()
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !reflect.DeepEqual(orig, back) {
			t.Fatalf("trial %d: round trip changed the table", trial)
		}
		// A second encode of the decoded table yields identical bytes —
		// the stability the committed-artifact diff relies on.
		data2, err := back.Encode()
		if err != nil {
			t.Fatalf("trial %d: re-encode: %v", trial, err)
		}
		if string(data) != string(data2) {
			t.Fatalf("trial %d: encoding not byte-stable", trial)
		}
	}
}

// TestTableLoadWrite exercises the file round trip: Write, then read
// the file back through Decode.
func TestTableLoadWrite(t *testing.T) {
	orig := randomTable(rand.New(rand.NewSource(7)))
	path := filepath.Join(t.TempDir(), "cal.json")
	if err := orig.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatal("file round trip changed the table")
	}
}

// TestTableValidateRejections pins the validator's rejection surface.
func TestTableValidateRejections(t *testing.T) {
	mk := func() *Table { return randomTable(rand.New(rand.NewSource(3))) }
	cases := []struct {
		name  string
		wreck func(*Table)
		want  string
	}{
		{"version", func(tb *Table) { tb.FormatVersion = 99 }, "format version"},
		{"empty axis", func(tb *Table) { tb.RangesM = nil }, "empty axis"},
		{"descending axis", func(tb *Table) { tb.RangesM[0], tb.RangesM[1] = tb.RangesM[1], tb.RangesM[0] }, "not ascending"},
		{"duplicate axis", func(tb *Table) { tb.RangesM[1] = tb.RangesM[0] }, "duplicate"},
		{"intensity range", func(tb *Table) { tb.Intensities[0] = -0.1 }, "outside [0, 1]"},
		{"cell count", func(tb *Table) { tb.Cells = tb.Cells[:len(tb.Cells)-1] }, "cells"},
		{"probability clamp", func(tb *Table) { tb.Cells[0].PDeliver = 1.5 }, "outside [0, 1]"},
		{"negative stat", func(tb *Table) { tb.Cells[0].SNRStdDB = -1 }, "negative"},
		{"chip rate", func(tb *Table) { tb.ChipRate = 0 }, "chip rate"},
	}
	for _, tc := range cases {
		tb := mk()
		tc.wreck(tb)
		err := tb.Validate()
		if err == nil {
			t.Fatalf("%s: corruption accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDefaultTableSanity is the committed-artifact contract: the embedded
// calibration table validates, its delivery probabilities are clamped to
// [0, 1] and monotone non-increasing along the range axis in every
// (environment, intensity, orientation) series, and its provenance fields
// are populated.
func TestDefaultTableSanity(t *testing.T) {
	tab := DefaultTable()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if tab.Scenario == "" || tab.RoundsPerCell < 1 || tab.ChipRate <= 0 {
		t.Fatalf("provenance missing: scenario=%q rounds=%d chip=%g",
			tab.Scenario, tab.RoundsPerCell, tab.ChipRate)
	}
	for ei := range tab.Envs {
		for ii := range tab.Intensities {
			for oi := range tab.OrientsRad {
				prev := math.Inf(1)
				for ri := range tab.RangesM {
					c := tab.CellAt(ei, ii, oi, ri)
					if c.PDeliver < 0 || c.PDeliver > 1 {
						t.Fatalf("env %d int %d orient %d range %d: p=%g outside [0,1]",
							ei, ii, oi, ri, c.PDeliver)
					}
					if c.PDeliver > prev {
						t.Fatalf("env %d int %d orient %d: p increases along range at index %d (%g > %g)",
							ei, ii, oi, ri, c.PDeliver, prev)
					}
					prev = c.PDeliver
				}
			}
		}
	}
}

// TestBracket pins the interpolation bracket's clamped extrapolation.
func TestBracket(t *testing.T) {
	axis := []float64{10, 20, 40}
	cases := []struct {
		v     float64
		wantI int
		wantW float64
	}{
		{5, 0, 0}, {10, 0, 0}, {15, 0, 0.5}, {20, 0, 1}, {30, 1, 0.5}, {40, 1, 1}, {99, 1, 1},
	}
	for _, tc := range cases {
		i, w := bracket(axis, tc.v)
		if i != tc.wantI || math.Abs(w-tc.wantW) > 1e-12 {
			t.Fatalf("bracket(%g) = (%d, %g), want (%d, %g)", tc.v, i, w, tc.wantI, tc.wantW)
		}
	}
}

// TestLookupInterpolates: grid points reproduce every statistic a draw
// reads exactly (resolution leaves CorrMean and DelayMs 0), midpoints
// land between their neighbours, and the intensity axis blends planes.
func TestLookupInterpolates(t *testing.T) {
	tab := DefaultTable()
	coord := tab.Resolve(tab.RangesM[0], tab.OrientsRad[0])
	got := tab.Lookup(0, coord, tab.Intensities[0])
	want := tab.CellAt(0, 0, 0, 0)
	want.CorrMean, want.DelayMs = 0, 0
	if got != want {
		t.Fatalf("grid-point lookup %+v != cell %+v", got, want)
	}

	mid := (tab.RangesM[0] + tab.RangesM[1]) / 2
	coord = tab.Resolve(mid, tab.OrientsRad[0])
	got = tab.Lookup(0, coord, tab.Intensities[0])
	a := tab.CellAt(0, 0, 0, 0).PDeliver
	b := tab.CellAt(0, 0, 0, 1).PDeliver
	lo, hi := math.Min(a, b), math.Max(a, b)
	if got.PDeliver < lo-1e-12 || got.PDeliver > hi+1e-12 {
		t.Fatalf("midpoint p=%g outside neighbour envelope [%g, %g]", got.PDeliver, lo, hi)
	}

	// Orientation folds: -θ and +θ resolve to the same coordinates.
	if tab.Resolve(100, -0.4) != tab.Resolve(100, 0.4) {
		t.Fatal("orientation not folded to |θ|")
	}
}

// TestShiftDelivery pins the odds-space SNR shift: identity at Δ=0,
// monotone in Δ, hard cells stay hard, output stays a probability.
func TestShiftDelivery(t *testing.T) {
	tab := DefaultTable()
	if got := tab.ShiftDelivery(0.6, 0); got != 0.6 {
		t.Fatalf("Δ=0 moved p: %g", got)
	}
	if got := tab.ShiftDelivery(0, 10); got != 0 {
		t.Fatalf("hard-0 cell moved: %g", got)
	}
	if got := tab.ShiftDelivery(1, -10); got != 1 {
		t.Fatalf("hard-1 cell moved: %g", got)
	}
	prev := 0.0
	for d := -12.0; d <= 12; d += 3 {
		p := tab.ShiftDelivery(0.5, d)
		if p <= 0 || p >= 1 {
			t.Fatalf("shift(0.5, %g) = %g escaped (0, 1)", d, p)
		}
		if p <= prev {
			t.Fatalf("shift not monotone at Δ=%g: %g <= %g", d, p, prev)
		}
		prev = p
	}
}

// TestIsotonicNonIncreasing pins the PAV fit.
func TestIsotonicNonIncreasing(t *testing.T) {
	s := []float64{0.9, 0.95, 0.5, 0.6, 0.2}
	isotonicNonIncreasing(s)
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1]+1e-12 {
			t.Fatalf("not non-increasing: %v", s)
		}
	}
	// Pooling preserves the mean.
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-(0.9+0.95+0.5+0.6+0.2)) > 1e-9 {
		t.Fatalf("PAV changed the mass: %v", s)
	}
	// Already-monotone input is untouched.
	id := []float64{1, 0.8, 0.3, 0.3, 0}
	want := append([]float64(nil), id...)
	isotonicNonIncreasing(id)
	if !reflect.DeepEqual(id, want) {
		t.Fatalf("monotone input modified: %v", id)
	}
}
