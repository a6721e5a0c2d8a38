package linksim

import (
	"os"
	"testing"
)

// committedCopy decodes a private copy of the embedded calibration table.
func committedCopy(t *testing.T) *Table {
	t.Helper()
	tab, err := Decode(defaultTableJSON)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestEquivalentSyntheticTables(t *testing.T) {
	base := committedCopy(t)

	if e, err := Equivalent(base, committedCopy(t)); err != nil || e.MaxZ != 0 || e.PooledZ != 0 {
		t.Fatalf("identical table: %v, %v", e, err)
	}

	shifted := committedCopy(t)
	for i := range shifted.Cells {
		shifted.Cells[i].PDeliver = min(1, shifted.Cells[i].PDeliver+0.05)
	}
	e, err := Equivalent(base, shifted)
	if err == nil {
		t.Fatalf("uniform 5 pp shift passed: %v", e)
	}
	t.Logf("uniform +5 pp: %v", e)

	one := committedCopy(t)
	cell := len(one.Cells) / 2
	if p := one.Cells[cell].PDeliver; p >= 0.5 {
		one.Cells[cell].PDeliver = p - 0.5
	} else {
		one.Cells[cell].PDeliver = p + 0.5
	}
	e, err = Equivalent(base, one)
	if err == nil || e.MaxCell != cell {
		t.Fatalf("cell %d off by 0.5: %v, %v", cell, e, err)
	}
	t.Logf("one cell off by 0.5: %v", e)

	other := committedCopy(t)
	other.RangesM = append([]float64(nil), other.RangesM...)
	other.RangesM[0]++
	if _, err := Equivalent(base, other); err == nil {
		t.Fatal("tables on different grids compared")
	}
}

// TestEquivalentAcceptsReseededSubGrid is the gate's false-alarm check:
// the sub-grid campaign rerun unchanged at another seed must pass against
// the committed golden.
func TestEquivalentAcceptsReseededSubGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("waveform calibration campaign")
	}
	data, err := os.ReadFile("testdata/calibration_subgrid.json")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	cfg := subGridConfig()
	cfg.Seed = 8
	cfg.Workers = 2
	tab, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Equivalent(golden, tab)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sub-grid at seed 8 vs golden: %v", e)
}
