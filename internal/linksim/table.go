package linksim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// TableFormatVersion is the serialization format this package reads and
// writes. Decode rejects other versions: calibration tables are versioned
// artifacts, and a silent cross-version reinterpretation would corrupt
// every downstream statistic.
const TableFormatVersion = 1

// Cell holds the calibrated link statistics of one
// (environment, intensity, orientation, range) grid point.
type Cell struct {
	// PDeliver is the probability one poll attempt delivers a decodable
	// frame, in [0, 1]. Monotone non-increasing along the range axis
	// (enforced by isotonic regression at calibration time).
	PDeliver float64 `json:"p_deliver"`
	// SNRMeanDB / SNRStdDB parameterize the reported tone SNR of
	// delivered frames (dB, normal approximation).
	SNRMeanDB float64 `json:"snr_mean_db"`
	SNRStdDB  float64 `json:"snr_std_db"`
	// CorrMean is the mean FEC corrections per delivered frame, as the
	// waveform tier measures them (the residual-BER proxy
	// core.Fleet.LinkQuality tracks). Nothing draws from it: it stays
	// because table format v1 carries it, and resolution leaves it 0.
	CorrMean float64 `json:"corr_mean"`
	// DelayMs is the round-trip propagation delay at the cell's range.
	// Nothing draws from it: it stays because table format v1 carries
	// it, and resolution leaves it 0.
	DelayMs float64 `json:"delay_ms"`
}

// Table is a versioned, serializable calibration artifact: link statistics
// over a sampled (environment, fault intensity, orientation, range) grid,
// plus the provenance needed to regenerate it bit-identically.
//
// Cells are flattened with range fastest:
//
//	index = ((env*len(Intensities) + intensity)*len(OrientsRad) + orient)*len(RangesM) + range
type Table struct {
	FormatVersion int `json:"format_version"`

	// Provenance: the exact calibration configuration. Rerunning
	// `vabsim -calibrate` with these values reproduces the table.
	Scenario      string  `json:"scenario"` // fault spec behind the intensity axis
	Seed          int64   `json:"seed"`
	RoundsPerCell int     `json:"rounds_per_cell"`
	ChipRate      float64 `json:"chip_rate"`       // cps the cells were measured at
	SourceLevelDB float64 `json:"source_level_db"` // projector level during calibration

	// Axes, each ascending.
	Envs        []string  `json:"envs"`
	RangesM     []float64 `json:"ranges_m"`
	OrientsRad  []float64 `json:"orients_rad"` // absolute node rotation
	Intensities []float64 `json:"intensities"` // fault severity in [0, 1]

	// Logistic SNR→delivery transfer fitted across cells:
	// p(snr) = 1 / (1 + exp(-LogisticK·(snr - LogisticSNR50))). Used to
	// translate SNR deltas (chip-rate changes) into delivery-probability
	// shifts anchored at the calibrated cell.
	LogisticK     float64 `json:"logistic_k"`
	LogisticSNR50 float64 `json:"logistic_snr50_db"`

	Cells []Cell `json:"cells"`
}

// Validate checks structural invariants: version, non-empty ascending
// axes, cell count, and probability clamping.
func (t *Table) Validate() error {
	if t.FormatVersion != TableFormatVersion {
		return fmt.Errorf("linksim: table format version %d, this build reads %d",
			t.FormatVersion, TableFormatVersion)
	}
	if len(t.Envs) == 0 || len(t.RangesM) == 0 || len(t.OrientsRad) == 0 || len(t.Intensities) == 0 {
		return fmt.Errorf("linksim: table has an empty axis")
	}
	for name, axis := range map[string][]float64{
		"ranges_m": t.RangesM, "orients_rad": t.OrientsRad, "intensities": t.Intensities,
	} {
		if !sort.Float64sAreSorted(axis) {
			return fmt.Errorf("linksim: axis %s not ascending: %v", name, axis)
		}
		for i := 1; i < len(axis); i++ {
			if axis[i] == axis[i-1] {
				return fmt.Errorf("linksim: axis %s has duplicate value %g", name, axis[i])
			}
		}
	}
	for _, in := range t.Intensities {
		if in < 0 || in > 1 {
			return fmt.Errorf("linksim: intensity %g outside [0, 1]", in)
		}
	}
	want := len(t.Envs) * len(t.Intensities) * len(t.OrientsRad) * len(t.RangesM)
	if len(t.Cells) != want {
		return fmt.Errorf("linksim: %d cells for a %d-point grid", len(t.Cells), want)
	}
	for i, c := range t.Cells {
		if c.PDeliver < 0 || c.PDeliver > 1 || math.IsNaN(c.PDeliver) {
			return fmt.Errorf("linksim: cell %d delivery probability %g outside [0, 1]", i, c.PDeliver)
		}
		if c.SNRStdDB < 0 || c.CorrMean < 0 || c.DelayMs < 0 {
			return fmt.Errorf("linksim: cell %d has a negative statistic", i)
		}
	}
	if t.ChipRate <= 0 {
		return fmt.Errorf("linksim: chip rate %g must be positive", t.ChipRate)
	}
	return nil
}

// EnvIndex resolves an environment name against the table's axis.
func (t *Table) EnvIndex(name string) (int, error) {
	for i, e := range t.Envs {
		if e == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("linksim: environment %q not calibrated (table has %v)", name, t.Envs)
}

// cellIndex flattens grid coordinates.
func (t *Table) cellIndex(env, intensity, orient, rng int) int {
	return ((env*len(t.Intensities)+intensity)*len(t.OrientsRad)+orient)*len(t.RangesM) + rng
}

// linkCoord caches a link's interpolation coordinates on the
// (orientation, range) plane: bracketing grid indices plus lerp weights.
// Resolved once per node at fleet construction; the per-poll lookup then
// touches at most 8 cells.
type linkCoord struct {
	ri, oi uint16  // lower bracketing index on the range / orientation axis
	wr, wo float32 // weight of the upper neighbour in [0, 1]
}

// bracket locates v on an ascending axis: the lower index and the upper
// neighbour's weight, clamping outside the grid (constant extrapolation).
func bracket(axis []float64, v float64) (int, float64) {
	n := len(axis)
	if n == 1 || v <= axis[0] {
		return 0, 0
	}
	if v >= axis[n-1] {
		return n - 2, 1
	}
	i := sort.SearchFloat64s(axis, v)
	// axis[i-1] < v <= axis[i] here (v > axis[0] and v < axis[n-1]).
	lo := i - 1
	return lo, (v - axis[lo]) / (axis[lo+1] - axis[lo])
}

// Resolve computes a link's interpolation coordinates. Orientation is
// folded to its absolute value: the calibrated response is symmetric in
// rotation sign (E4's orientation sweep is).
func (t *Table) Resolve(rangeM, orientRad float64) linkCoord {
	ri, wr := bracket(t.RangesM, rangeM)
	oi, wo := bracket(t.OrientsRad, math.Abs(orientRad))
	return linkCoord{ri: uint16(ri), oi: uint16(oi), wr: float32(wr), wo: float32(wo)}
}

// lerpCell linearly interpolates every statistic a draw reads into dst;
// CorrMean and DelayMs stay 0. Cells go through pointers, field by
// field: a Cell returned by value is built on the stack and then copied
// in wider moves, which stall on store forwarding and cost the table walk
// most of its time.
func lerpCell(dst, a, b *Cell, w float64) {
	dst.PDeliver = a.PDeliver + (b.PDeliver-a.PDeliver)*w
	dst.SNRMeanDB = a.SNRMeanDB + (b.SNRMeanDB-a.SNRMeanDB)*w
	dst.SNRStdDB = a.SNRStdDB + (b.SNRStdDB-a.SNRStdDB)*w
}

// planeCell bilinearly interpolates one (orientation, range) plane, the
// cells of one (env, intensity) slice with range fastest, into dst at the
// resolved coordinates, clamping at the plane's far edges.
func (t *Table) planeCell(dst *Cell, plane []Cell, c linkCoord) {
	nR := len(t.RangesM)
	i := int(c.oi)*nR + int(c.ri)
	dr, do := 0, 0
	if int(c.ri)+1 < nR {
		dr = 1
	}
	if int(c.oi)+1 < len(t.OrientsRad) {
		do = nR
	}
	wr, wo := float64(c.wr), float64(c.wo)
	var low, high Cell
	lerpCell(&low, &plane[i], &plane[i+dr], wr)
	lerpCell(&high, &plane[i+do], &plane[i+do+dr], wr)
	lerpCell(dst, &low, &high, wo)
}

// intensitySpan brackets one severity on the intensity axis of one
// environment: the planes of the lower and upper grid intensities, and
// the upper one's weight.
type intensitySpan struct {
	lo, hi []Cell
	w      float64
}

// bracketIntensity locates a severity on the intensity axis, once per
// cycle for the fleet's draws.
func (t *Table) bracketIntensity(env int, intensity float64) intensitySpan {
	ii, wi := bracket(t.Intensities, intensity)
	i1 := ii
	if i1+1 < len(t.Intensities) {
		i1 = ii + 1
	}
	n := len(t.OrientsRad) * len(t.RangesM)
	lo, hi := t.cellIndex(env, ii, 0, 0), t.cellIndex(env, i1, 0, 0)
	return intensitySpan{lo: t.Cells[lo : lo+n], hi: t.Cells[hi : hi+n], w: wi}
}

// lookupAt interpolates the full grid into cell: bilinear on
// (orientation, range), then linear along the fault-intensity axis that s
// brackets, clamped at the grid edges.
func (t *Table) lookupAt(cell *Cell, c linkCoord, s *intensitySpan) {
	var lo, hi Cell
	t.planeCell(&lo, s.lo, c)
	t.planeCell(&hi, s.hi, c)
	lerpCell(cell, &lo, &hi, s.w)
	if cell.PDeliver < 0 {
		cell.PDeliver = 0
	}
	if cell.PDeliver > 1 {
		cell.PDeliver = 1
	}
}

// shiftOdds translates an SNR delta Δ ≠ 0 into a delivery-probability
// adjustment using the fitted logistic transfer, given its odds gain
// e^{kΔ}: the cell's calibrated probability anchors the curve and the
// delta slides along it in odds space — p' = p·e^{kΔ} / (1 − p + p·e^{kΔ}).
// p of exactly 0 or 1 is a hard cell (no finite SNR shift changes it).
func shiftOdds(p, gain float64) float64 {
	if p <= 0 || p >= 1 {
		return p
	}
	odds := p / (1 - p) * gain
	return odds / (1 + odds)
}

// Encode serializes the table (indented JSON, stable field order).
func (t *Table) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return nil, fmt.Errorf("linksim: encode table: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses and validates a serialized table.
func Decode(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("linksim: decode table: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Write stores the table at path.
func (t *Table) Write(path string) error {
	data, err := t.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("linksim: write table: %w", err)
	}
	return nil
}
