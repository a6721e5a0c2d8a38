package linksim

import (
	"fmt"
	"math"
	"slices"
)

// Equivalence is the outcome of comparing a regenerated calibration table
// with the committed one, cell by cell on delivery probability.
type Equivalence struct {
	// MaxZ is the largest per-cell |z| of the two-proportion test, at
	// MaxCell; Limit is its Bonferroni critical value.
	MaxZ    float64
	MaxCell int
	Limit   float64
	// PooledZ is the mean delivery shift (regenerated − committed) over
	// its binomial standard error; |PooledZ| must stay within pooledLimit.
	PooledZ float64
}

// Significance levels of the equivalence gate: the per-cell test runs at
// family-wise α = 0.01, Bonferroni-corrected over the cells, and the
// pooled shift must stay within ±3 standard errors.
const (
	equivalenceAlpha = 0.01
	pooledLimit      = 3.0
)

func (e Equivalence) String() string {
	return fmt.Sprintf("max cell z %.2f at cell %d (limit %.2f), pooled z %.2f (limit ±%.0f)",
		e.MaxZ, e.MaxCell, e.Limit, e.PooledZ, pooledLimit)
}

// Equivalent gates a deliberate output change to the waveform tier: it
// tests whether regenerated delivery probabilities are what the committed
// table's would look like when measured again, and returns an error when
// they are not. Each cell's PDeliver is treated as a binomial proportion
// over RoundsPerCell rounds, and two tests apply, either of which fails
// the table:
//
//   - per cell, a two-proportion z test, Bonferroni-corrected at α = 0.01
//     over the cells, so one badly moved cell fails;
//   - pooled, the mean shift over its binomial standard error must stay
//     within ±3, so a small bias shared by every cell fails.
//
// The tables must share their grid axes; the seeds and rounds per cell may
// differ. The statistics are returned whether or not the table passes.
func Equivalent(committed, regenerated *Table) (Equivalence, error) {
	a, b := committed, regenerated
	if !slices.Equal(a.Envs, b.Envs) || !slices.Equal(a.RangesM, b.RangesM) ||
		!slices.Equal(a.OrientsRad, b.OrientsRad) || !slices.Equal(a.Intensities, b.Intensities) ||
		len(a.Cells) != len(b.Cells) || len(a.Cells) == 0 {
		return Equivalence{}, fmt.Errorf("linksim: equivalence needs tables on one grid")
	}
	if a.RoundsPerCell < 1 || b.RoundsPerCell < 1 {
		return Equivalence{}, fmt.Errorf("linksim: equivalence needs positive rounds per cell")
	}
	m := float64(len(a.Cells))
	na, nb := float64(a.RoundsPerCell), float64(b.RoundsPerCell)
	// Two-sided critical value at α/m: Φ⁻¹(1 − α/(2m)) = √2·erfinv(1 − α/m).
	e := Equivalence{Limit: math.Sqrt2 * math.Erfinv(1-equivalenceAlpha/m)}
	var sumD, sumVar float64
	for i := range a.Cells {
		pa, pb := a.Cells[i].PDeliver, b.Cells[i].PDeliver
		pool := (pa*na + pb*nb) / (na + nb)
		v := pool * (1 - pool) * (1/na + 1/nb)
		sumD += pb - pa
		sumVar += v
		if v > 0 {
			if z := math.Abs(pb-pa) / math.Sqrt(v); z > e.MaxZ {
				e.MaxZ, e.MaxCell = z, i
			}
		}
	}
	if sumVar > 0 {
		e.PooledZ = sumD / math.Sqrt(sumVar)
	}
	if e.MaxZ > e.Limit || math.Abs(e.PooledZ) > pooledLimit {
		return e, fmt.Errorf("linksim: regenerated table is not equivalent to the committed one: %v", e)
	}
	return e, nil
}
