package linksim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

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

// schedPos is a position in a cycle's schedule, the ascending merge of
// the live list and the due-probe list: how many live entries and how
// many due probes come before it.
type schedPos struct{ live, due int32 }

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
	blockPoll     = iota // draw and fold the scheduled polls of one block
	blockPopulate        // resolve cells for one block of nodes into the cache
)

// Execution-phase sizes. A block is pollBlock scheduled polls (or cache
// entries), whatever the worker count, so a block's record never holds
// more than pollBlock delivered pairs. Within a block, draws run in chunks
// of pollChunk polls: pass 1 computes every poll's first delivery uniform,
// pass 2 the rest.
const (
	pollBlock = 16384
	pollChunk = 64
)

// poolStage labels the pool's goroutines for pprof and names the stage of
// a *workpool.PanicError raised inside a block.
const poolStage = "linksim_cycle"

// drawPair is one delivered poll's SNR and delay, kept in schedule order
// so the cycle means sum in the order a serial fold would.
type drawPair struct{ snrDB, delayMs float64 }

// rateObs is one rate-controller observation: a delivered regular poll's
// SNR, or (loss) an exhausted one.
type rateObs struct {
	snrDB float64
	loss  bool
}

// blockRecord is what one poll block leaves for the in-order fold: the
// counts it folded, how many of its live entries stayed live, and, in
// schedule order, everything whose order the cycle's output depends on.
// Records live in a fleet-owned ring that blocks reuse once folded, so
// their storage is bounded by ring size × pollBlock.
type blockRecord struct {
	polls, retries, probes         int
	timeouts, quarantined, dropped int
	corr                           int64
	kept                           int // live entries kept, compacted to the front of the block's live range

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

// cycleTally accumulates the folded block records of one cycle.
type cycleTally struct {
	polls, delivered, retries, probes int
	timeouts, quarantined, dropped    int
	corr                              int64
	snrSum, delaySum                  float64
	kept                              int // live entries kept by the blocks folded so far
}

// fleetPool is the persistent execution-phase worker pool. Workers live
// for the fleet's lifetime (until Close) and block on the jobs channel
// between cycles, so a steady-state cycle costs channel sends, not
// goroutine spawns. A worker runs block b into ring record b mod len(ring)
// and reports b on done.
type fleetPool struct {
	width    int
	jobs     chan int32
	done     chan int32
	finished []bool // per ring slot: its block has reported done
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
// allocates nothing — the due-probe list, block records, live list,
// restore scratch, calendar buckets and worker pool are all owned by the
// Fleet and reused.
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

	due      []int32       // this cycle's due probes, ascending, disjoint from live
	bounds   []schedPos    // block b covers the schedule from bounds[b] to bounds[b+1]
	ring     []blockRecord // block b's record is ring[b%len(ring)]
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
	// read by pool workers; the jobs send orders the accesses, and the
	// done receive orders a block's writes before its fold.
	pool            *fleetPool
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
// draw is a pure function of (seed, node, cycle, attempt), blocks are cut
// from the schedule alone, each node's state is written only by the block
// that owns it, and everything whose order shows in the output folds in
// block order. The pool
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
//  1. Decision (O(due probes)): filter this cycle's wheel bucket into the
//     due-probe list. The schedule is the ascending merge of the live list
//     and that list, in which each node appears at most once; it is read
//     in place, never copied. Hero picks are drawn from it here.
//  2. Execution (parallel): the schedule is cut into blocks of pollBlock
//     polls — a contiguous live range plus the due probes between its
//     ends — and run on the persistent worker pool. A block draws each
//     poll, a pure function of (seed, node, cycle, attempt), folds it into
//     the node's state columns at once, and compacts its own live range
//     in place, dropping leavers. Only the block that owns a node writes
//     its columns, so blocks share no state. Cycles whose model
//     parameters are stable draw from the resolved-cell cache instead of
//     re-interpolating the table per poll.
//  3. Fold (in block order, overlapping execution): the dispatching
//     goroutine folds block b's record as soon as blocks 0…b have
//     finished — counts, the float sums of the cycle means, calendar
//     inserts, restores and the rate-controller feed, in the sequence a
//     serial fold would see — and closes the gap between b's kept live
//     entries and the ones before them. Then restored nodes merge back
//     into the live list and telemetry counters flush once per cycle.
//
// At 10⁶ nodes on a 2-vCPU host with two workers, deciding takes under a
// microsecond and the fold about 0.5 ms of a 19 ms cycle, behind the
// blocks; DESIGN.md, "Fleet scaling", has the measured split.
//
// A panic inside a block comes back as a *workpool.PanicError whose Index
// is the node being drawn or folded (the lowest such block's, at any
// worker count); the fleet's state is then undefined. RunCycle returns
// only after every block it dispatched has finished.
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

	// Decision phase. A node calendared twice for this cycle (a stale
	// duplicate, or an overflow entry merged with its bucket) is adjacent
	// in the ascending bucket and probed once, keeping every node in at
	// most one block. Stale entries (restored or re-quarantined nodes)
	// fail ProbeDueAt; their live entry or newer calendar slot owns them.
	f.due = f.due[:0]
	for _, n := range f.wheel.take(cycle) {
		if k := len(f.due); k > 0 && f.due[k-1] == n {
			continue
		}
		if f.cols.ProbeDueAt(int(n), cycle) {
			f.due = append(f.due, n)
		}
	}
	rep.Polled = len(f.live) + len(f.due)
	var picks []int32
	if f.hero != nil {
		picks = f.hero.pick(f, cycle)
	}

	// Execution and fold phases.
	f.execModel = model
	f.execCycle = cycle
	f.execMaxAttempts = 1 + f.cfg.Policy.MaxRetries
	var t cycleTally
	if populate {
		if f.cellCache == nil {
			f.cellCache = make([]cachedCell, f.cfg.Nodes)
		}
		f.execKind = blockPopulate
		if err := f.dispatch((f.cfg.Nodes+pollBlock-1)/pollBlock, &t); err != nil {
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
	blocks := (rep.Polled + pollBlock - 1) / pollBlock
	f.bounds = f.bounds[:0]
	for b := 0; b < blocks; b++ {
		f.bounds = append(f.bounds, f.schedAt(b*pollBlock))
	}
	f.bounds = append(f.bounds, schedPos{live: int32(len(f.live)), due: int32(len(f.due))})
	f.restored = f.restored[:0]
	if err := f.dispatch(blocks, &t); err != nil {
		return rep, err
	}
	f.live = f.live[:t.kept]

	rep.Delivered = t.delivered
	rep.Retries = t.retries
	rep.Probes = t.probes
	rep.Restored = len(f.restored)
	f.nQuar += t.quarantined - rep.Restored
	f.nDrop += t.dropped
	f.met.polls.Add(int64(t.polls))
	f.met.delivered.Add(int64(rep.Delivered))
	f.met.timeouts.Add(int64(t.timeouts))
	f.met.probes.Add(int64(rep.Probes))
	f.met.quarant.Add(int64(t.quarantined))
	f.met.restored.Add(int64(rep.Restored))
	f.met.dropped.Add(int64(t.dropped))

	// The restored merge back into the live list (both lists are
	// ascending; the merge lands in the double buffer and the buffers
	// swap, so no cycle allocates).
	if len(f.restored) > 0 {
		f.liveAlt = mergeSortedInto(f.liveAlt, f.live, f.restored)
		f.live, f.liveAlt = f.liveAlt, f.live
	}
	f.met.live.Set(float64(len(f.live)))

	if rep.Delivered > 0 {
		rep.MeanSNRdB = t.snrSum / float64(rep.Delivered)
		rep.MeanDelayMs = t.delaySum / float64(rep.Delivered)
		rep.CorrectedPerFrame = float64(t.corr) / float64(rep.Delivered)
	}
	rep.Live = len(f.live)
	rep.Quarantined = f.nQuar
	rep.Dropped = f.nDrop

	// Hero phase: cross-check the picked polls at waveform fidelity.
	if f.hero != nil {
		hr, err := f.hero.check(f, &model, cycle, picks)
		if err != nil {
			return rep, err
		}
		rep.Hero = hr
	}
	return rep, nil
}

// schedAt returns schedule position k (0 ≤ k ≤ len(live)+len(due)): the
// split of the schedule's first k polls into live entries and due probes,
// found by binary search over the two ascending lists.
func (f *Fleet) schedAt(k int) schedPos {
	live, due := f.live, f.due
	// The live count i is the smallest in range whose next live entry
	// sorts after the last of the k-i probes it leaves.
	lo, hi := max(0, k-len(due)), min(k, len(live))
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if due[k-i-1] < live[i] {
			hi = i
		} else {
			lo = i + 1
		}
	}
	return schedPos{live: int32(lo), due: int32(k - lo)}
}

// scheduled returns the k-th poll of this cycle's schedule and whether it
// is a probe.
func (f *Fleet) scheduled(k int) (node int32, probe bool) {
	p := f.schedAt(k)
	if int(p.live) < len(f.live) && (int(p.due) == len(f.due) || f.live[p.live] < f.due[p.due]) {
		return f.live[p.live], false
	}
	return f.due[p.due], true
}

// dispatch runs blocks 0…blocks-1 of the current kind and folds each
// block's record, in block order, as soon as it and every block before it
// have finished. At most len(ring) blocks are in flight, so a record is
// reused only after its fold. On a block's error dispatch stops handing
// out blocks, waits for those in flight and returns the error — the
// lowest failing block's, since every block before it folded cleanly.
// Blocks are deterministic spans of the schedule over disjoint node sets,
// so results are independent of which worker runs which block.
func (f *Fleet) dispatch(blocks int, t *cycleTally) error {
	width := f.workers
	if n := 2 * width; len(f.ring) != n {
		// A block schedules each node at most once, so no record ever
		// holds more pairs than this.
		f.ring = make([]blockRecord, n)
		for i := range f.ring {
			f.ring[i].pairs = make([]drawPair, 0, min(pollBlock, f.cfg.Nodes))
		}
	}
	if width == 1 || blocks <= 1 {
		for b := 0; b < blocks; b++ {
			f.runBlock(b)
			if err := f.foldBlock(b, t); err != nil {
				return err
			}
		}
		return nil
	}
	f.ensurePool(width)
	p, ring := f.pool, len(f.ring)
	var err error
	sent, next := 0, 0 // blocks handed to the pool; the next block to fold
	for next < sent || (err == nil && sent < blocks) {
		for ; err == nil && sent < blocks && sent-next < ring; sent++ {
			p.jobs <- int32(sent)
		}
		for !p.finished[next%ring] {
			p.finished[int(<-p.done)%ring] = true
		}
		p.finished[next%ring] = false
		if err == nil {
			err = f.foldBlock(next, t)
		}
		next++
	}
	return err
}

// ensurePool starts (or resizes) the persistent worker pool.
func (f *Fleet) ensurePool(width int) {
	if f.pool != nil && f.pool.width == width {
		return
	}
	f.Close()
	// Both channels hold a full ring of blocks, so neither the dispatcher
	// nor a worker ever blocks on a send.
	p := &fleetPool{
		width:    width,
		jobs:     make(chan int32, len(f.ring)),
		done:     make(chan int32, len(f.ring)),
		finished: make([]bool, len(f.ring)),
	}
	f.pool = p
	for w := 0; w < width; w++ {
		go func() {
			pprof.Do(context.Background(), pprof.Labels("vab_stage", poolStage), func(context.Context) {
				for b := range p.jobs {
					f.runBlock(int(b))
					p.done <- b
				}
			})
		}()
	}
}

// runBlock executes block b of the current execution phase into its ring
// record. A panic is recovered into the record as a *workpool.PanicError
// naming the node the block had reached.
func (f *Fleet) runBlock(b int) {
	rec := &f.ring[b%len(f.ring)]
	rec.reset()
	node := -1
	defer func() {
		if v := recover(); v != nil {
			rec.err = &workpool.PanicError{Stage: poolStage, Index: node, Value: v, Stack: debug.Stack()}
		}
	}()
	m := &f.execModel
	if f.execKind == blockPopulate {
		for node = b * pollBlock; node < min((b+1)*pollBlock, f.cfg.Nodes); node++ {
			cell := m.resolve(f.coords[node])
			f.cellCache[node] = cachedCell{cell: cell, expNegCorr: math.Exp(-cell.CorrMean)}
		}
		return
	}
	from, to := f.bounds[b], f.bounds[b+1]
	i, j := int(from.live), int(from.due)
	kept := i // the block's live range compacts in place; kept never passes i
	cycle := f.execCycle
	var chunk [pollChunk]struct {
		node  int32
		probe bool
		seed  pollSeed
	}
	for i < int(to.live) || j < int(to.due) {
		// Pass 1: every poll's seed chain and first delivery uniform,
		// independent across polls.
		n := 0
		for ; n < pollChunk && (i < int(to.live) || j < int(to.due)); n++ {
			c := &chunk[n]
			if j < int(to.due) && (i == int(to.live) || f.due[j] < f.live[i]) {
				c.node, c.probe = f.due[j], true
				j++
			} else {
				c.node, c.probe = f.live[i], false
				i++
			}
			c.seed = seedPoll(f.seedHead, c.node, cycle, c.probe)
		}
		// Pass 2: the rest of each draw, and its fold.
		for k := 0; k < n; k++ {
			c := &chunk[k]
			node = int(c.node)
			attempts := f.execMaxAttempts
			if c.probe {
				attempts = 1 // probes are single-attempt, as in the waveform MAC
			}
			var out outcome
			if f.execCached {
				cc := &f.cellCache[c.node]
				m.pollCell(&c.seed, attempts, &cc.cell, cc.expNegCorr, &out)
			} else {
				cell := m.resolve(f.coords[c.node])
				m.pollCell(&c.seed, attempts, &cell, 0, &out)
			}
			if f.fold(rec, c.node, c.probe, &out, cycle) {
				f.live[kept] = c.node
				kept++
			}
		}
	}
	rec.kept = kept - int(from.live)
}

// foldBlock folds block b's finished record into the cycle: counts, the
// delivered pairs' float sums, calendar inserts, restores and the rate
// feed, in schedule order. It then closes the gap between the block's kept
// live entries and those of the blocks before it; the copy lands below the
// block's own range, which no running block reads.
func (f *Fleet) foldBlock(b int, t *cycleTally) error {
	r := &f.ring[b%len(f.ring)]
	if r.err != nil || f.execKind == blockPopulate {
		return r.err
	}
	t.polls += r.polls
	t.delivered += len(r.pairs)
	t.retries += r.retries
	t.probes += r.probes
	t.timeouts += r.timeouts
	t.quarantined += r.quarantined
	t.dropped += r.dropped
	t.corr += r.corr
	snrSum, delaySum := t.snrSum, t.delaySum // in registers: the sums are a serial chain
	for _, d := range r.pairs {
		snrSum += d.snrDB
		delaySum += d.delayMs
	}
	t.snrSum, t.delaySum = snrSum, delaySum
	for _, n := range r.calendar {
		f.wheel.schedule(n, f.cols.NextProbeAt(int(n)), f.execCycle)
	}
	f.restored = append(f.restored, r.restored...)
	for _, o := range r.feed {
		if o.loss {
			f.rate.ObserveLoss()
		} else {
			f.rate.Observe(o.snrDB)
		}
	}
	if lo := int(f.bounds[b].live); t.kept != lo {
		copy(f.live[t.kept:], f.live[lo:lo+r.kept])
	}
	t.kept += r.kept
	return nil
}

// fold applies one drawn poll to its node's columns through the shared
// mac fold primitives, notes in rec what the in-order fold must see, and
// reports whether a live node stays on the regular schedule.
func (f *Fleet) fold(rec *blockRecord, node int32, probe bool, out *outcome, cycle int) (stays bool) {
	ni := int(node)
	attempts := int(out.attempts)
	f.cols.Polls[ni] += int32(attempts)
	rec.polls += attempts
	if probe {
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
		if probe {
			f.cols.RestoreAt(ni, cycle)
			rec.restored = append(rec.restored, node)
			return false
		}
		if f.rate != nil {
			rec.feed = append(rec.feed, rateObs{snrDB: out.snrDB})
		}
		return true
	case probe:
		rec.timeouts++
		f.cfg.Policy.FoldProbeFailureAt(f.cols, ni, cycle)
		rec.calendar = append(rec.calendar, node)
		return false
	default:
		rec.timeouts++
		if f.rate != nil {
			rec.feed = append(rec.feed, rateObs{loss: true})
		}
		switch f.cfg.Policy.FoldPollFailureAt(f.cols, ni, cycle) {
		case mac.LivenessQuarantined:
			rec.quarantined++
			rec.calendar = append(rec.calendar, node)
			return false
		case mac.LivenessDropped:
			rec.dropped++
			return false
		}
		return true
	}
}
