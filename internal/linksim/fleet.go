package linksim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sync"

	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/telemetry"
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

// workItem is one scheduled poll of a cycle.
type workItem struct {
	node  int32
	probe bool
}

// CycleReport summarizes one abstract-tier polling cycle.
type CycleReport struct {
	Cycle     int
	Polled    int // scheduled polls (regular + probes)
	Delivered int
	Retries   int
	Probes    int
	Restored  int

	Live        int // on the regular schedule after this cycle
	Quarantined int
	Dropped     int

	MeanSNRdB         float64 // over delivered polls (0 if none)
	MeanDelayMs       float64
	CorrectedPerFrame float64
	Severity          float64 // fault severity driving this cycle's draws
	ChipRate          float64 // commanded chip rate during this cycle

	Hero HeroReport
}

// fleetMetrics instruments the abstract tier. Zero value = noop.
type fleetMetrics struct {
	polls     *telemetry.Counter
	delivered *telemetry.Counter
	timeouts  *telemetry.Counter
	probes    *telemetry.Counter
	quarant   *telemetry.Counter
	restored  *telemetry.Counter
	dropped   *telemetry.Counter
	cellHits  *telemetry.Counter // cycles served from the resolved-cell cache
	live      *telemetry.Gauge
}

// modelKey identifies the model parameters a cycle's cell resolution
// depends on. Cycles sharing a key resolve every node to identical cells,
// which is what makes the resolved-cell cache sound.
type modelKey struct {
	severity float64
	snrDelta float64
}

// cachedCell is one node's resolved link model under a modelKey: the
// interpolated cell, the rate-shifted delivery probability, and the
// Poisson loop constant e^{-CorrMean} — everything a poll draw needs, so
// a cache hit skips the trilinear table walk entirely.
type cachedCell struct {
	cell       Cell
	p          float64
	expNegCorr float64
}

// Exec-phase block kinds dispatched to the worker pool.
const (
	blockPoll     = iota // draw outcomes for f.work[lo:hi]
	blockPopulate        // resolve cells for nodes [lo, hi) into the cache
)

// blockSpan is one sharded unit of a cycle's execution phase.
type blockSpan struct{ lo, hi int32 }

// fleetPool is the persistent execution-phase worker pool. Workers live
// for the fleet's lifetime (until Close) and block on the jobs channel
// between cycles, so a steady-state cycle costs channel sends, not
// goroutine spawns.
type fleetPool struct {
	width int
	jobs  chan blockSpan
}

// Fleet is the link-abstraction tier: up to ~10⁶ nodes polled per cycle
// through the calibrated statistical model, with the MAC layer's exact
// liveness semantics. The scheduler is event-driven — per-cycle work is
// O(live nodes + due probes), not O(all nodes): quarantined nodes sit in a
// probe calendar wheel keyed by their next re-probe cycle and cost nothing
// until it comes up.
//
// Per-node state is struct-of-arrays (mac.NodeColumns): the fold phase
// and liveness scans stream through dense hot columns instead of dragging
// a ~100-byte struct per node through the cache, and a steady-state cycle
// allocates nothing — the work list, outcome buffer, live list, restore
// scratch, calendar buckets and worker pool are all owned by the Fleet
// and reused.
type Fleet struct {
	cfg   Config
	table *Table
	env   int

	cols    *mac.NodeColumns // per-node MAC bookkeeping, SoA layout
	coords  []linkCoord      // per-node interpolation coordinates
	ranges  []float64
	orients []float64

	live    []int32 // ascending node indices on the regular schedule
	liveAlt []int32 // double buffer for the restore merge
	wheel   probeWheel
	nQuar   int
	nDrop   int

	cycle    int
	seedBase uint64
	workers  int

	rate  *mac.RateController
	chaos *faults.Engine
	hero  *heroChecker
	met   fleetMetrics

	work     []workItem // scratch, reused across cycles
	outs     []outcome
	restored []int32

	// Resolved-cell cache: valid for cycles whose modelKey matches
	// cacheKey. Populated lazily once the key has been stable for two
	// cycles, so chaos campaigns (a new severity every cycle) never pay
	// for it and calm campaigns skip the per-poll table walk.
	cellCache []cachedCell
	cacheKey  modelKey
	cacheOK   bool
	lastKey   modelKey
	lastOK    bool

	// Execution-phase context, written by RunCycle before dispatch and
	// read by pool workers; the jobs send / WaitGroup wait pair orders
	// the accesses.
	pool            *fleetPool
	wg              sync.WaitGroup
	execModel       cycleModel
	execCycle       int
	execMaxAttempts int
	execKind        int
	execCached      bool
	execPopulate    bool
}

// NewFleet builds an abstract fleet. Placements (range, orientation) are
// drawn deterministically from the seed, uniform over the configured
// annulus, and resolved against the table once.
func NewFleet(cfg Config) (*Fleet, error) {
	if n := len(cfg.Placements); n > 0 {
		if cfg.Nodes != 0 && cfg.Nodes != n {
			return nil, fmt.Errorf("linksim: Nodes=%d conflicts with %d placements", cfg.Nodes, n)
		}
		cfg.Nodes = n
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
		ranges:   make([]float64, cfg.Nodes),
		orients:  make([]float64, cfg.Nodes),
		live:     make([]int32, cfg.Nodes),
		liveAlt:  make([]int32, 0, cfg.Nodes),
		wheel:    newProbeWheel(cfg.Policy.ProbeHorizon()),
		seedBase: uint64(cfg.Seed),
		workers:  1,
	}
	const placeDomain = 0x506c6163 // placement draws, distinct from poll streams
	for i := 0; i < cfg.Nodes; i++ {
		if len(cfg.Placements) > 0 {
			f.ranges[i] = cfg.Placements[i].RangeM
			f.orients[i] = cfg.Placements[i].OrientRad
		} else {
			st := newStream(mix(f.seedBase, placeDomain, uint64(i)))
			f.ranges[i] = rangeMinM + st.f64()*(rangeMaxM-rangeMinM)
			f.orients[i] = (2*st.f64() - 1) * maxOrientRad
		}
		f.coords[i] = t.Resolve(f.ranges[i], f.orients[i])
		f.cols.Addr[i] = byte(i % 251)
		f.live[i] = int32(i)
	}
	if cfg.HeroLinks > 0 {
		f.hero, err = newHeroChecker(f)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// NodeState returns a copy of node i's MAC bookkeeping, materialized from
// the columnar layout.
func (f *Fleet) NodeState(i int) mac.NodeState { return f.cols.State(i) }

// SetWorkers bounds the execution-phase worker pool (n <= 0 selects
// runtime.NumCPU()). Cycle outcomes are bit-identical at any width: every
// draw is a pure function of (seed, node, cycle, attempt) and all state
// mutation happens serially afterwards in node order. The pool itself is
// persistent — workers are spawned on the first parallel cycle and reused
// until Close or the next width change.
func (f *Fleet) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	f.workers = n
}

// Close releases the persistent worker pool (if any). The fleet remains
// usable — the next parallel cycle restarts the pool — so Close is safe
// to defer as soon as the fleet is built.
func (f *Fleet) Close() {
	if f.pool != nil {
		close(f.pool.jobs)
		f.pool = nil
	}
}

// EnableRateAdaptation attaches a fleet-wide rate controller: delivered
// polls feed its SNR belief, exhausted polls its loss signal, and its
// commanded chip rate shifts the next cycle's delivery odds along the
// table's logistic transfer (the abstract analogue of rebuilding the PHY
// chain at a new rate).
func (f *Fleet) EnableRateAdaptation(rc *mac.RateController) { f.rate = rc }

// SetFaultEngine attaches a fault engine. Each cycle's plan is projected
// onto the table's calibrated intensity axis via faults.ModelSeverity; the
// hero checker attaches the same engine to its waveform systems so both
// tiers see one scenario clock.
func (f *Fleet) SetFaultEngine(e *faults.Engine) { f.chaos = e }

// Instrument registers the tier's metrics (nil registry = noop).
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	f.met = fleetMetrics{
		polls:     reg.Counter("vab_linksim_polls_total", "Abstract-tier poll attempts."),
		delivered: reg.Counter("vab_linksim_delivered_total", "Abstract-tier delivered polls."),
		timeouts:  reg.Counter("vab_linksim_timeouts_total", "Abstract-tier exhausted polls."),
		probes:    reg.Counter("vab_linksim_probes_total", "Abstract-tier quarantine re-probes."),
		quarant:   reg.Counter("vab_linksim_quarantined_total", "Nodes entering probation."),
		restored:  reg.Counter("vab_linksim_restored_total", "Nodes restored from probation."),
		dropped:   reg.Counter("vab_linksim_dropped_total", "Nodes permanently dropped."),
		cellHits:  reg.Counter("vab_linksim_cell_cache_cycles_total", "Cycles served from the resolved-cell cache."),
		live:      reg.Gauge("vab_linksim_live_nodes", "Nodes on the regular schedule."),
	}
	f.met.live.Set(float64(len(f.live)))
	if f.hero != nil {
		f.hero.instrument(reg)
	}
	if f.rate != nil {
		f.rate.Instrument(reg)
	}
}

// RunCycle polls every live node once (with the policy's retry budget),
// re-probes the quarantined nodes whose backoff elapsed, and folds the
// outcomes through the shared MAC primitives.
//
// Three phases, mirroring mac.Scheduler.RunCycle's structure at fleet
// scale:
//
//  1. Decision (serial): compact the live list, pull this cycle's probe
//     bucket from the calendar wheel, merge both into one ascending work
//     list.
//  2. Execution (parallel): every scheduled poll's outcome is drawn
//     independently — a pure function of (seed, node, cycle, attempt) —
//     sharded block-wise over the persistent worker pool with no shared
//     state. Cycles whose model parameters are stable draw from the
//     resolved-cell cache instead of re-interpolating the table per poll.
//  3. Fold (serial, ascending node order): outcomes apply to the state
//     columns through the shared mac fold primitives, the rate controller
//     is fed exactly as the waveform scheduler feeds it, and liveness
//     transitions update the live list and probe calendar. Telemetry
//     counters accumulate locally and flush once per cycle.
func (f *Fleet) RunCycle() (CycleReport, error) {
	cycle := f.cycle
	f.cycle++
	rep := CycleReport{Cycle: cycle}

	// Snapshot everything the draws depend on, once, before fan-out —
	// the same snapshot discipline mac.Scheduler.runWave applies to the
	// rate command.
	model := cycleModel{table: f.table, env: f.env}
	if f.chaos != nil {
		rep.Severity = faults.ModelSeverity(f.chaos.Plan(cycle))
		model.severity = rep.Severity
	}
	rep.ChipRate = f.table.ChipRate
	if f.rate != nil {
		rep.ChipRate = f.rate.Rate()
		model.snrDelta = 10 * math.Log10(f.table.ChipRate/rep.ChipRate)
	}
	model.chipRate = rep.ChipRate

	// Cell-cache policy for this cycle. A hit requires the cache to have
	// been populated under this exact (severity, snrDelta); population
	// itself waits for the key to repeat once, so a key seen only once
	// (chaos redraws severity every cycle) costs nothing.
	key := modelKey{severity: model.severity, snrDelta: model.snrDelta}
	useCache := f.cacheOK && key == f.cacheKey
	populate := !useCache && f.lastOK && key == f.lastKey
	f.lastKey, f.lastOK = key, true

	// Decision phase.
	f.work = f.work[:0]
	probes := f.wheel.take(cycle)
	pi := 0
	for _, n := range f.live {
		for pi < len(probes) && probes[pi] < n {
			f.appendProbe(probes[pi], cycle)
			pi++
		}
		f.work = append(f.work, workItem{node: n})
	}
	for ; pi < len(probes); pi++ {
		f.appendProbe(probes[pi], cycle)
	}
	rep.Polled = len(f.work)

	// Execution phase.
	if cap(f.outs) < len(f.work) {
		f.outs = make([]outcome, len(f.work))
	}
	f.outs = f.outs[:len(f.work)]
	f.execModel = model
	f.execCycle = cycle
	f.execMaxAttempts = 1 + f.cfg.Policy.MaxRetries
	if populate {
		if f.cellCache == nil {
			f.cellCache = make([]cachedCell, f.cfg.Nodes)
		}
		f.execKind = blockPopulate
		f.dispatch(f.cfg.Nodes)
		f.cacheKey, f.cacheOK = key, true
		useCache = true
	}
	f.execCached = useCache
	if useCache {
		f.met.cellHits.Inc()
	}
	f.execKind = blockPoll
	f.dispatch(len(f.work))

	// Fold phase. Telemetry deltas accumulate locally and flush once —
	// a million-poll cycle performs a handful of atomic adds, not four
	// per poll.
	var snrSum, delaySum float64
	var corrSum int64
	var mPolls, mDelivered, mTimeouts, mProbes, mQuar, mRestored, mDropped int64
	f.restored = f.restored[:0]
	leavers := false
	pol := f.cfg.Policy
	for i := range f.work {
		w := f.work[i]
		out := &f.outs[i]
		ni := int(w.node)
		attempts := int(out.attempts)
		f.cols.Polls[ni] += int32(attempts)
		mPolls += int64(attempts)
		if w.probe {
			rep.Probes++
			mProbes++
		} else if attempts > 1 {
			f.cols.Retries[ni] += int32(attempts - 1)
			rep.Retries += attempts - 1
		}
		switch {
		case out.delivered:
			f.cols.FoldDeliveredAt(ni, out.snrDB)
			rep.Delivered++
			mDelivered++
			snrSum += out.snrDB
			delaySum += out.delayMs
			corrSum += int64(out.corrected)
			if w.probe {
				f.cols.RestoreAt(ni, cycle)
				f.restored = append(f.restored, w.node)
				f.nQuar--
				rep.Restored++
				mRestored++
			} else if f.rate != nil {
				f.rate.Observe(out.snrDB)
			}
		case w.probe:
			mTimeouts++
			pol.FoldProbeFailureAt(f.cols, ni, cycle)
			f.wheel.schedule(w.node, f.cols.NextProbeAt(ni), cycle)
		default:
			mTimeouts++
			if f.rate != nil {
				f.rate.ObserveLoss()
			}
			switch pol.FoldPollFailureAt(f.cols, ni, cycle) {
			case mac.LivenessQuarantined:
				f.nQuar++
				leavers = true
				mQuar++
				f.wheel.schedule(w.node, f.cols.NextProbeAt(ni), cycle)
			case mac.LivenessDropped:
				f.nDrop++
				leavers = true
				mDropped++
			}
		}
	}
	f.met.polls.Add(mPolls)
	f.met.delivered.Add(mDelivered)
	f.met.timeouts.Add(mTimeouts)
	f.met.probes.Add(mProbes)
	f.met.quarant.Add(mQuar)
	f.met.restored.Add(mRestored)
	f.met.dropped.Add(mDropped)

	// Liveness list maintenance: drop leavers, merge the restored back in
	// (both lists are ascending; the merge lands in the double buffer and
	// the buffers swap, so no cycle allocates).
	if leavers {
		kept := f.live[:0]
		for _, n := range f.live {
			if f.cols.Live(int(n)) {
				kept = append(kept, n)
			}
		}
		f.live = kept
	}
	if len(f.restored) > 0 {
		f.liveAlt = mergeSortedInto(f.liveAlt, f.live, f.restored)
		f.live, f.liveAlt = f.liveAlt, f.live
	}
	f.met.live.Set(float64(len(f.live)))

	if rep.Delivered > 0 {
		rep.MeanSNRdB = snrSum / float64(rep.Delivered)
		rep.MeanDelayMs = delaySum / float64(rep.Delivered)
		rep.CorrectedPerFrame = float64(corrSum) / float64(rep.Delivered)
	}
	rep.Live = len(f.live)
	rep.Quarantined = f.nQuar
	rep.Dropped = f.nDrop

	// Hero phase: cross-check a deterministic subset at waveform fidelity.
	if f.hero != nil {
		hr, err := f.hero.check(f, &model, cycle, f.work)
		if err != nil {
			return rep, err
		}
		rep.Hero = hr
	}
	return rep, nil
}

// appendProbe schedules a calendared node into the work list if its probe
// is genuinely due (stale calendar entries — restored or re-quarantined
// nodes — are skipped; their live entry or newer calendar slot owns them).
func (f *Fleet) appendProbe(n int32, cycle int) {
	if f.cols.ProbeDueAt(int(n), cycle) {
		f.work = append(f.work, workItem{node: n, probe: true})
	}
}

// dispatch shards [0, n) over the execution pool (or runs inline when the
// pool would not pay). Blocks are deterministic spans — workers only write
// disjoint ranges of f.outs or f.cellCache — so results are independent
// of which worker runs which block.
func (f *Fleet) dispatch(n int) {
	width := f.workers
	if width <= 1 || n < 2*width {
		f.runSpan(0, n)
		return
	}
	f.ensurePool(width)
	block := (n + 4*width - 1) / (4 * width)
	if block < 2048 {
		block = 2048
	}
	blocks := (n + block - 1) / block
	f.wg.Add(blocks)
	for lo := 0; lo < n; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		f.pool.jobs <- blockSpan{lo: int32(lo), hi: int32(hi)}
	}
	f.wg.Wait()
}

// ensurePool starts (or resizes) the persistent worker pool.
func (f *Fleet) ensurePool(width int) {
	if f.pool != nil && f.pool.width == width {
		return
	}
	f.Close()
	// Buffer covers a full cycle's block fan-out (≤ 4·width + 1), so the
	// dispatching goroutine never blocks behind a busy pool.
	p := &fleetPool{width: width, jobs: make(chan blockSpan, 4*width+4)}
	f.pool = p
	for w := 0; w < width; w++ {
		go func() {
			pprof.Do(context.Background(), pprof.Labels("vab_stage", "linksim_cycle"), func(context.Context) {
				for j := range p.jobs {
					f.runSpan(int(j.lo), int(j.hi))
					f.wg.Done()
				}
			})
		}()
	}
}

// runSpan executes one block of the current execution phase.
func (f *Fleet) runSpan(lo, hi int) {
	if f.execKind == blockPopulate {
		m := &f.execModel
		for i := lo; i < hi; i++ {
			cell, p := m.resolve(f.coords[i])
			f.cellCache[i] = cachedCell{cell: cell, p: p, expNegCorr: math.Exp(-cell.CorrMean)}
		}
		return
	}
	m := &f.execModel
	cycle := f.execCycle
	maxAttempts := f.execMaxAttempts
	if f.execCached {
		for i := lo; i < hi; i++ {
			w := f.work[i]
			n := maxAttempts
			if w.probe {
				n = 1 // probes are single-attempt, as in the waveform MAC
			}
			cc := &f.cellCache[w.node]
			f.outs[i] = m.pollCell(f.seedBase, w.node, cycle, w.probe, n, cc.cell, cc.p, cc.expNegCorr)
		}
		return
	}
	for i := lo; i < hi; i++ {
		w := f.work[i]
		n := maxAttempts
		if w.probe {
			n = 1
		}
		cell, p := m.resolve(f.coords[w.node])
		f.outs[i] = m.pollCell(f.seedBase, w.node, cycle, w.probe, n, cell, p, 0)
	}
}
