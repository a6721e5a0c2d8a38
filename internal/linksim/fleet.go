package linksim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"

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
// resolved cell (PDeliver rate-shifted) and the Poisson loop constant
// e^{-CorrMean} — everything a poll draw needs, so a cache hit skips the
// trilinear table walk entirely.
type cachedCell struct {
	cell       Cell
	expNegCorr float64
}

// Exec-phase block kinds dispatched to the worker pool.
const (
	blockPoll     = iota // draw and fold the polls of f.work[lo:hi]
	blockPopulate        // resolve cells for nodes [lo, hi) into the cache
)

// poolStage labels the pool's goroutines for pprof and names the stage of
// a *workpool.PanicError raised inside a block.
const poolStage = "linksim_cycle"

// blockSpan is one sharded unit of a cycle's execution phase: the work
// range [lo, hi) and the index of the blockRecord it writes.
type blockSpan struct{ lo, hi, idx int32 }

// drawPair is one delivered poll's SNR and delay, kept in work-list order
// so the cycle means sum in the order a serial fold would.
type drawPair struct{ snrDB, delayMs float64 }

// rateObs is one rate-controller observation: a delivered regular poll's
// SNR, or (loss) an exhausted one.
type rateObs struct {
	snrDB float64
	loss  bool
}

// blockRecord is what one poll block leaves for the serial tail: the
// counts it folded, and, in work-list order, everything whose order the
// cycle's output depends on. Records are fleet-owned and reused, so a
// steady-state cycle appends into storage earlier cycles grew.
type blockRecord struct {
	polls, retries, probes         int
	timeouts, quarantined, dropped int
	corr                           int64

	pairs    []drawPair // delivered polls' (snr, delay), one per delivery
	calendar []int32    // nodes to calendar: failed probes, new quarantines
	restored []int32    // nodes restored by a delivered probe
	feed     []rateObs  // rate-controller feed (only with a controller)
	err      error      // a panic recovered from the block
}

// reset clears the record for a new block, keeping its storage.
func (r *blockRecord) reset() {
	*r = blockRecord{
		pairs:    r.pairs[:0],
		calendar: r.calendar[:0],
		restored: r.restored[:0],
		feed:     r.feed[:0],
	}
}

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
// Per-node state is struct-of-arrays (mac.NodeColumns): the fold
// and liveness scans stream through dense hot columns instead of dragging
// a ~100-byte struct per node through the cache, and a steady-state cycle
// allocates nothing — the work list, block records, live list, restore
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
	seedHead uint64 // mix(seedBase): the link every poll seed chains from
	workers  int

	rate  *mac.RateController
	chaos *faults.Engine
	hero  *heroChecker
	met   fleetMetrics

	work     []workItem    // scratch, reused across cycles
	recs     []blockRecord // one per block of the last dispatch
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
		seedHead: mix(uint64(cfg.Seed)),
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
// draw is a pure function of (seed, node, cycle, attempt), each node's
// state is written only by the block that owns it, and everything whose
// order shows in the output replays serially in node order. The pool
// itself is persistent — workers are spawned on the first parallel cycle
// and reused until Close or the next width change.
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
//  1. Decision (serial): pull this cycle's probe bucket from the calendar
//     wheel and merge it with the live list into one ascending work list
//     in which each node appears at most once.
//  2. Execution (parallel): the work list is sharded block-wise over the
//     persistent worker pool. A block draws each poll — a pure function
//     of (seed, node, cycle, attempt) — and folds it into the node's
//     state columns at once. Only the block that owns a node writes its
//     columns, so blocks share no state. Cycles whose model parameters
//     are stable draw from the resolved-cell cache instead of
//     re-interpolating the table per poll.
//  3. Tail (serial, block order): what must happen in work-list order
//     runs here from the blocks' records — calendar inserts, the float
//     sums of the cycle means and the rate-controller feed. Blocks cover
//     ascending work ranges, so these see the sequence a serial fold
//     would. Then leavers drop out of the live list, restored nodes merge
//     back in, and telemetry counters flush once per cycle.
//
// A panic inside a block comes back as a *workpool.PanicError whose Index
// is the node being drawn or folded (the lowest such block's, at any
// worker count); the fleet's state is then undefined.
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
	f.execModel = model
	f.execCycle = cycle
	f.execMaxAttempts = 1 + f.cfg.Policy.MaxRetries
	if populate {
		if f.cellCache == nil {
			f.cellCache = make([]cachedCell, f.cfg.Nodes)
		}
		f.execKind = blockPopulate
		if err := f.dispatch(f.cfg.Nodes); err != nil {
			f.cacheOK = false
			return rep, err
		}
		f.cacheKey, f.cacheOK = key, true
		useCache = true
	}
	f.execCached = useCache
	if useCache {
		f.met.cellHits.Inc()
	}
	f.execKind = blockPoll
	if err := f.dispatch(len(f.work)); err != nil {
		return rep, err
	}

	// Tail: merge the block records in block order.
	var snrSum, delaySum float64
	var corrSum int64
	var mPolls, mTimeouts, mQuar, mDropped int
	f.restored = f.restored[:0]
	for i := range f.recs {
		r := &f.recs[i]
		mPolls += r.polls
		rep.Delivered += len(r.pairs)
		rep.Retries += r.retries
		rep.Probes += r.probes
		rep.Restored += len(r.restored)
		mTimeouts += r.timeouts
		mQuar += r.quarantined
		mDropped += r.dropped
		corrSum += r.corr
		for _, d := range r.pairs {
			snrSum += d.snrDB
			delaySum += d.delayMs
		}
		for _, n := range r.calendar {
			f.wheel.schedule(n, f.cols.NextProbeAt(int(n)), cycle)
		}
		f.restored = append(f.restored, r.restored...)
		for _, o := range r.feed {
			if o.loss {
				f.rate.ObserveLoss()
			} else {
				f.rate.Observe(o.snrDB)
			}
		}
	}
	f.nQuar += mQuar - rep.Restored
	f.nDrop += mDropped
	f.met.polls.Add(int64(mPolls))
	f.met.delivered.Add(int64(rep.Delivered))
	f.met.timeouts.Add(int64(mTimeouts))
	f.met.probes.Add(int64(rep.Probes))
	f.met.quarant.Add(int64(mQuar))
	f.met.restored.Add(int64(rep.Restored))
	f.met.dropped.Add(int64(mDropped))

	// Liveness list maintenance: drop leavers, merge the restored back in
	// (both lists are ascending; the merge lands in the double buffer and
	// the buffers swap, so no cycle allocates).
	if mQuar+mDropped > 0 {
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
// The work list is built ascending, so a node calendared twice for this
// cycle would be the last item: it is skipped, keeping every node in at
// most one block.
func (f *Fleet) appendProbe(n int32, cycle int) {
	if k := len(f.work); k > 0 && f.work[k-1].node == n {
		return
	}
	if f.cols.ProbeDueAt(int(n), cycle) {
		f.work = append(f.work, workItem{node: n, probe: true})
	}
}

// dispatch shards [0, n) over the execution pool (or runs inline when the
// pool would not pay) and returns the lowest block's error. Blocks are
// deterministic spans over disjoint node sets, each writing its own
// record, so results are independent of which worker runs which block.
func (f *Fleet) dispatch(n int) error {
	width := f.workers
	blocks, block := 1, n
	if width > 1 && n >= 2*width {
		block = max(2048, (n+4*width-1)/(4*width))
		blocks = (n + block - 1) / block
	}
	for cap(f.recs) < blocks {
		f.recs = append(f.recs[:cap(f.recs)], blockRecord{})
	}
	f.recs = f.recs[:blocks]
	if blocks == 1 {
		f.runSpan(blockSpan{lo: 0, hi: int32(n)})
	} else {
		f.ensurePool(width)
		f.wg.Add(blocks)
		for b := 0; b < blocks; b++ {
			lo, hi := b*block, min((b+1)*block, n)
			f.pool.jobs <- blockSpan{lo: int32(lo), hi: int32(hi), idx: int32(b)}
		}
		f.wg.Wait()
	}
	for i := range f.recs {
		if err := f.recs[i].err; err != nil {
			return err
		}
	}
	return nil
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
			pprof.Do(context.Background(), pprof.Labels("vab_stage", poolStage), func(context.Context) {
				for j := range p.jobs {
					f.runSpan(j)
					f.wg.Done()
				}
			})
		}()
	}
}

// runSpan executes one block of the current execution phase into its
// record. A panic is recovered into the record as a *workpool.PanicError
// naming the node the block had reached.
func (f *Fleet) runSpan(b blockSpan) {
	rec := &f.recs[b.idx]
	rec.reset()
	i := int(b.lo)
	defer func() {
		if v := recover(); v != nil {
			node := i
			if f.execKind == blockPoll {
				node = int(f.work[i].node)
			}
			rec.err = &workpool.PanicError{Stage: poolStage, Index: node, Value: v, Stack: debug.Stack()}
		}
	}()
	m := &f.execModel
	if f.execKind == blockPopulate {
		for ; i < int(b.hi); i++ {
			cell := m.resolve(f.coords[i])
			f.cellCache[i] = cachedCell{cell: cell, expNegCorr: math.Exp(-cell.CorrMean)}
		}
		return
	}
	cycle := f.execCycle
	for ; i < int(b.hi); i++ {
		w := f.work[i]
		n := f.execMaxAttempts
		if w.probe {
			n = 1 // probes are single-attempt, as in the waveform MAC
		}
		var out outcome
		if f.execCached {
			cc := &f.cellCache[w.node]
			out = m.pollCell(f.seedHead, w.node, cycle, w.probe, n, &cc.cell, cc.expNegCorr)
		} else {
			cell := m.resolve(f.coords[w.node])
			out = m.pollCell(f.seedHead, w.node, cycle, w.probe, n, &cell, 0)
		}
		f.fold(rec, w, &out, cycle)
	}
}

// fold applies one drawn poll to its node's columns through the shared
// mac fold primitives and notes in rec what the serial tail must replay
// in order.
func (f *Fleet) fold(rec *blockRecord, w workItem, out *outcome, cycle int) {
	ni := int(w.node)
	attempts := int(out.attempts)
	f.cols.Polls[ni] += int32(attempts)
	rec.polls += attempts
	if w.probe {
		rec.probes++
	} else if attempts > 1 {
		f.cols.Retries[ni] += int32(attempts - 1)
		rec.retries += attempts - 1
	}
	switch {
	case out.delivered:
		f.cols.FoldDeliveredAt(ni, out.snrDB)
		rec.pairs = append(rec.pairs, drawPair{out.snrDB, out.delayMs})
		rec.corr += int64(out.corrected)
		if w.probe {
			f.cols.RestoreAt(ni, cycle)
			rec.restored = append(rec.restored, w.node)
		} else if f.rate != nil {
			rec.feed = append(rec.feed, rateObs{snrDB: out.snrDB})
		}
	case w.probe:
		rec.timeouts++
		f.cfg.Policy.FoldProbeFailureAt(f.cols, ni, cycle)
		rec.calendar = append(rec.calendar, w.node)
	default:
		rec.timeouts++
		if f.rate != nil {
			rec.feed = append(rec.feed, rateObs{loss: true})
		}
		switch f.cfg.Policy.FoldPollFailureAt(f.cols, ni, cycle) {
		case mac.LivenessQuarantined:
			rec.quarantined++
			rec.calendar = append(rec.calendar, w.node)
		case mac.LivenessDropped:
			rec.dropped++
		}
	}
}
