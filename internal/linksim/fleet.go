package linksim

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/telemetry"
	"vab/internal/workpool"
)

// Config describes an abstract-tier fleet: how many nodes, where they sit,
// which calibration table models their links, and how many hero links per
// cycle are promoted to waveform fidelity.
type Config struct {
	// Nodes is the fleet size. The abstract tier is indexed by int32, so
	// deployments far beyond the MAC layer's 8-bit address space (the
	// waveform fleet's ceiling) are in range.
	Nodes int
	// Policy is the MAC polling policy — the same retry/probation
	// semantics the waveform scheduler applies, via the shared fold
	// primitives.
	Policy mac.PollPolicy
	// Table is the calibration artifact (nil → the embedded default).
	Table *Table
	// Env names the environment column of the table ("river", "ocean").
	Env string
	// Placements, when non-empty, pins every node's geometry explicitly
	// instead of drawing it from the seed (uniform over the calibrated
	// rangeMinM..rangeMaxM annulus and ±maxOrientRad); Nodes must be 0 or
	// match its length. Surveyed deployments and parity tests use this.
	Placements []Placement
	// Seed drives every placement and poll draw. Same seed, same
	// transcript, at any worker count.
	Seed int64
	// HeroLinks promotes this many scheduled polls per cycle to full
	// waveform fidelity for online cross-checking (0 = off).
	HeroLinks int
}

// The calibrated span seeded placements draw from: the uniform deployment
// annulus in metres and the node rotation bound in radians.
const (
	rangeMinM, rangeMaxM = 25, 300
	maxOrientRad         = 60 * math.Pi / 180
)

// Placement pins one node's geometry.
type Placement struct {
	RangeM    float64
	OrientRad float64
}

// CycleReport summarizes one abstract-tier polling cycle: the scheduler's
// report plus what the link model adds.
type CycleReport struct {
	mac.CycleReport

	CorrectedPerFrame float64
	Severity          float64 // fault severity driving this cycle's draws

	Hero HeroReport
}

// modelKey identifies the model parameters a cycle's cell resolution
// depends on. Cycles sharing a key resolve every node to identical cells,
// which is what makes the resolved-cell cache sound.
type modelKey struct {
	severity float64
	snrDelta float64
}

// cachedCell is one node's resolved link model under a modelKey, 40
// bytes: the resolved cell (PDeliver rate-shifted) with CorrMean replaced
// by the Poisson loop constant e^{-CorrMean} — everything a poll draw
// needs, so a cache hit skips the trilinear table walk entirely.
type cachedCell struct {
	pDeliver, snrMeanDB, snrStdDB, delayMs float64
	// expNegCorr is e^{-CorrMean}, or noCorrections when CorrMean ≤ 0.
	expNegCorr float64
}

// noCorrections is cachedCell.expNegCorr for a cell whose CorrMean is not
// positive: above every e^{-λ} of a positive λ, it tells the draw to take
// no uniform (see poissonExp).
const noCorrections = 2.0

// setCell stores a resolved cell.
func (c *cachedCell) setCell(cell *Cell) {
	*c = cachedCell{cell.PDeliver, cell.SNRMeanDB, cell.SNRStdDB, cell.DelayMs, noCorrections}
	if cell.CorrMean > 0 {
		c.expNegCorr = math.Exp(-cell.CorrMean)
	}
}

// pollBlock is the scheduler's block length for this backend: a block is
// pollBlock scheduled polls whatever the worker count, long enough that a
// block amortizes its dispatch. Placement and cache population run in
// blocks of as many nodes.
const pollBlock = 16384

// placeDomain separates the placement draws, mix(seed, placeDomain, i),
// from the poll streams.
const placeDomain = 0x506c6163

// Fleet is the link-abstraction tier: up to ~10⁶ nodes polled per cycle
// through the calibrated statistical model, with the MAC layer's exact
// liveness semantics. The cycle itself — live list, probe calendar,
// parallel blocks, in-order fold — is mac.Scheduler's; the Fleet is its
// backend, drawing each poll from the table.
type Fleet struct {
	cfg   Config
	table *Table
	env   int

	cols   *mac.NodeColumns // per-node MAC liveness, SoA layout
	sched  *mac.Scheduler
	coords []linkCoord // per-node interpolation coordinates

	seedBase  uint64
	seedHead  uint64 // mix(seedBase): the link every poll seed chains from
	placeHead uint64 // mix(seedBase, placeDomain): the placement draws' chain

	chaos    *faults.Engine
	hero     *heroChecker
	cellHits *telemetry.Counter // cycles served from the resolved-cell cache

	// Resolved-cell cache: valid for cycles whose modelKey matches
	// cacheKey. A fleet with neither a fault engine nor a rate controller
	// has one key for life and fills the cache in its first cycle; any
	// other fleet fills it once a key repeats in consecutive cycles, so
	// chaos campaigns (a new severity every cycle) never pay for it.
	cellCache []cachedCell
	cacheKey  modelKey
	cacheOK   bool
	lastKey   modelKey
	lastOK    bool

	// The running cycle's draw context, written by BeginCycle and read by
	// Draw on the scheduler's workers.
	model  cycleModel
	cycle  int
	cached bool
}

// NewFleet builds an abstract fleet. Placements (range, orientation) are
// pinned by cfg.Placements, which NewFleet copies, or drawn
// deterministically from the seed, uniform over the configured annulus;
// either way only their table coordinates are kept (see placement).
// Construction runs in blocks of nodes on runtime.GOMAXPROCS(0)
// goroutines (it precedes SetWorkers); each node is a pure function of
// (seed, node), so the fleet is the same at any GOMAXPROCS.
func NewFleet(cfg Config) (*Fleet, error) {
	if n := len(cfg.Placements); n > 0 {
		if cfg.Nodes != 0 && cfg.Nodes != n {
			return nil, fmt.Errorf("linksim: Nodes=%d conflicts with %d placements", cfg.Nodes, n)
		}
		cfg.Nodes = n
		cfg.Placements = slices.Clone(cfg.Placements)
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("linksim: fleet needs at least one node, got %d", cfg.Nodes)
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	t := cfg.Table
	if t == nil {
		t = DefaultTable()
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Env == "" {
		cfg.Env = "river"
	}
	env, err := t.EnvIndex(cfg.Env)
	if err != nil {
		return nil, err
	}
	if cfg.HeroLinks < 0 {
		return nil, fmt.Errorf("linksim: negative hero configuration")
	}

	f := &Fleet{
		cfg:      cfg,
		table:    t,
		env:      env,
		cols:     mac.NewNodeColumns(cfg.Nodes),
		coords:   make([]linkCoord, cfg.Nodes),
		seedBase: uint64(cfg.Seed),
		seedHead: mix(uint64(cfg.Seed)),
	}
	// The chain up to placeDomain is the same for every node, so it is
	// computed once, leaving one SplitMix64 per node.
	f.placeHead = faults.SplitMix64(f.seedHead ^ placeDomain)
	blocks := (cfg.Nodes + pollBlock - 1) / pollBlock
	if err := workpool.Run(blocks, runtime.GOMAXPROCS(0), "linksim_place", func(b int) error {
		for i := b * pollBlock; i < min((b+1)*pollBlock, cfg.Nodes); i++ {
			f.coords[i] = t.Resolve(f.placement(int32(i)))
		}
		return nil
	}); err != nil {
		return nil, err
	}
	f.sched, err = mac.NewScheduler(backend{f}, f.cols, pollBlock, cfg.Policy)
	if err != nil {
		return nil, err
	}
	if cfg.HeroLinks > 0 {
		f.hero, err = newHeroChecker(f)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// placement returns node i's range and orientation: the pinned placement,
// or the seeded draw from mix(seedBase, placeDomain, i). Construction and
// the hero checker call it; nothing keeps the result.
func (f *Fleet) placement(i int32) (rangeM, orientRad float64) {
	if len(f.cfg.Placements) > 0 {
		p := f.cfg.Placements[i]
		return p.RangeM, p.OrientRad
	}
	st := newStream(faults.SplitMix64(f.placeHead ^ uint64(i)))
	rangeM = rangeMinM + st.f64()*(rangeMaxM-rangeMinM)
	return rangeM, (2*st.f64() - 1) * maxOrientRad
}

// SetWorkers bounds the worker pool that runs the scheduler's blocks and
// populates the cell cache (n <= 0 selects runtime.NumCPU()). Cycle
// outcomes are bit-identical at any width: every draw is a pure function
// of (seed, node, cycle, attempt), and mac.Scheduler folds in schedule
// order.
func (f *Fleet) SetWorkers(n int) { f.sched.SetWorkers(n) }

// Close releases the scheduler's persistent worker pool (if any). The
// fleet remains usable, so Close is safe to defer as soon as the fleet is
// built.
func (f *Fleet) Close() { f.sched.Close() }

// EnableRateAdaptation attaches a fleet-wide rate controller: delivered
// polls feed its SNR belief, exhausted polls its loss signal, and its
// commanded chip rate shifts the next cycle's delivery odds along the
// table's logistic transfer (the abstract analogue of rebuilding the PHY
// chain at a new rate).
func (f *Fleet) EnableRateAdaptation(rc *mac.RateController) { f.sched.SetRateController(rc) }

// SetFaultEngine attaches a fault engine. Each cycle's plan is projected
// onto the table's calibrated intensity axis via faults.ModelSeverity; the
// hero checker attaches the same engine to its waveform systems so both
// tiers see one scenario clock.
func (f *Fleet) SetFaultEngine(e *faults.Engine) { f.chaos = e }

// Instrument registers the tier's metrics (nil registry = noop): the
// scheduler's vab_mac_* family, the cell-cache counter and the hero
// cross-check.
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	f.cellHits = reg.Counter("vab_linksim_cell_cache_cycles_total", "Cycles served from the resolved-cell cache.")
	f.sched.Instrument(reg)
	if f.hero != nil {
		f.hero.instrument(reg)
	}
}

// RunCycle runs one mac.Scheduler cycle over the fleet, then cross-checks
// the cycle's hero picks at waveform fidelity.
//
// At 10⁶ nodes on a 2-vCPU host with two workers, deciding takes under a
// microsecond and the fold about 0.5 ms of a 19 ms cycle, behind the
// blocks; DESIGN.md, "Fleet scaling", has the measured split.
func (f *Fleet) RunCycle() (CycleReport, error) {
	mrep, err := f.sched.RunCycle()
	rep := CycleReport{CycleReport: mrep, Severity: f.model.severity}
	rep.ChipRate = f.model.chipRate
	if err != nil {
		return rep, err
	}
	if rep.Delivered > 0 {
		rep.CorrectedPerFrame = float64(rep.Corrected) / float64(rep.Delivered)
	}
	if f.hero != nil {
		hr, err := f.hero.check(f, &f.model, rep.Cycle)
		if err != nil {
			return rep, err
		}
		rep.Hero = hr
	}
	return rep, nil
}

// backend adapts a Fleet to mac.Backend without exporting the hooks.
type backend struct{ f *Fleet }

// BeginCycle snapshots everything the cycle's draws depend on, once,
// before fan-out: the fault severity, the rate command as an SNR shift,
// the lookup constants, and whether the draws read the resolved-cell
// cache. It populates the cache (see the Fleet's cache fields), and picks
// the hero links from the schedule before the blocks compact it.
func (b backend) BeginCycle(cycle int, chipRate float64, sched mac.Schedule) error {
	f := b.f
	f.cycle = cycle
	severity := 0.0
	if f.chaos != nil {
		severity = faults.ModelSeverity(f.chaos.Plan(cycle))
	}
	f.model = newCycleModel(f.table, f.env, severity, chipRate)

	// Cell-cache policy for this cycle. A hit requires the cache to have
	// been populated under this exact (severity, snrDelta). With no fault
	// engine and no rate command the key cannot change, so population
	// runs at once; otherwise it waits for the key to repeat, so a key
	// seen only once (chaos redraws severity every cycle) costs nothing.
	key := modelKey{severity: f.model.severity, snrDelta: f.model.snrDelta}
	f.cached = f.cacheOK && key == f.cacheKey
	fixed := f.chaos == nil && chipRate == 0
	populate := !f.cached && (fixed || f.lastOK && key == f.lastKey)
	f.lastKey, f.lastOK = key, true
	if populate {
		if f.cellCache == nil {
			f.cellCache = make([]cachedCell, f.cfg.Nodes)
		}
		f.cacheOK = false
		blocks := (f.cfg.Nodes + pollBlock - 1) / pollBlock
		if err := workpool.Run(blocks, f.sched.Workers(), "linksim_cache", func(b int) error {
			for n := b * pollBlock; n < min((b+1)*pollBlock, f.cfg.Nodes); n++ {
				var cell Cell
				f.model.resolve(&cell, f.coords[n])
				f.cellCache[n].setCell(&cell)
			}
			return nil
		}); err != nil {
			return err
		}
		f.cacheKey, f.cacheOK, f.cached = key, true, true
	}
	if f.cached {
		f.cellHits.Inc()
	}
	if f.hero != nil {
		f.hero.pick(f, sched, cycle)
	}
	return nil
}

// Draw draws a chunk of polls in two passes: pass 1 computes every poll's
// seed chain and first delivery uniform, independent across polls so the
// chains pipeline; pass 2 finishes each draw from the node's cell and
// folds it.
func (b backend) Draw(c *mac.Chunk) error {
	f := b.f
	var seeds [mac.ChunkLen]pollSeed
	for k, p := range c.Polls {
		seeds[k] = seedPoll(f.seedHead, p.Node, f.cycle, p.Probe)
	}
	m := &f.model
	var out mac.Outcome
	for k, p := range c.Polls {
		if f.cached {
			m.pollCell(&seeds[k], int(p.Attempts), &f.cellCache[p.Node], &out)
		} else {
			var cell Cell
			var cc cachedCell
			m.resolve(&cell, f.coords[p.Node])
			cc.setCell(&cell)
			m.pollCell(&seeds[k], int(p.Attempts), &cc, &out)
		}
		c.Fold(&out)
	}
	return nil
}
