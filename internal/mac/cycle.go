package mac

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"vab/internal/telemetry"
	"vab/internal/workpool"
)

// ChunkLen is the most polls a Backend is asked to draw in one call.
const ChunkLen = 64

// poolStage labels the scheduler's pool goroutines for pprof and names the
// stage of a *workpool.PanicError raised inside a block.
const poolStage = "mac_cycle"

// Poll is one scheduled poll, as a Backend draws it.
type Poll struct {
	Node     int32 // dense node index
	Attempts int32 // attempt budget: 1 + MaxRetries, or 1 for a probe
	Probe    bool  // a quarantine re-probe
}

// Outcome is a Backend's result for one Poll.
type Outcome struct {
	SNRdB     float64 // reported SNR of the delivering attempt
	DelayMs   float64 // propagation delay of the delivering attempt
	Attempts  int32   // attempts used, 1…Poll.Attempts
	Corrected int32   // FEC corrections in the delivered frame
	Delivered bool
}

// Backend supplies the physical layer under a Scheduler: core.Fleet runs
// one waveform System per node, linksim.Fleet draws from the calibrated
// link table. The scheduler owns everything else — the schedule, the
// retry budget, the fold into NodeColumns, the rate controller.
type Backend interface {
	// BeginCycle runs on the caller's goroutine before any Draw of the
	// cycle. chipRate is the rate command every attempt of the cycle runs
	// at (0 when no controller is attached). sched is the cycle's
	// schedule; it is read-only and valid only until the first Draw.
	BeginCycle(cycle int, chipRate float64, sched Schedule) error
	// Draw draws c.Polls, at most ChunkLen of them, and hands each
	// outcome to c.Fold as soon as the poll is drawn, in order. Calls
	// for disjoint chunks run concurrently, and a node is never drawn
	// twice in one cycle. On an error Draw returns at once; the scheduler
	// names the poll it had reached.
	Draw(c *Chunk) error
}

// Chunk is the polls of one Draw call and the fold their outcomes go to.
// Folding each poll as soon as it is drawn, rather than a drawn chunk
// afterwards, lets the fold's stores overlap the next draw's
// latency-bound arithmetic: at 10⁶ abstract nodes the split form measured
// about 8% slower per cycle.
type Chunk struct {
	Polls []Poll // in schedule order; read-only for the backend

	s      *Scheduler
	rec    *blockRecord
	cycle  int
	folded int // polls folded so far
	kept   int // the block's next live-list slot
	buf    [ChunkLen]Poll
}

// at returns the poll the chunk had reached: the one being drawn or
// folded.
func (c *Chunk) at() Poll { return c.Polls[min(c.folded, len(c.Polls)-1)] }

// Schedule is one cycle's polls: the ascending merge of the live list and
// the due-probe list, two disjoint ascending lists of node indices.
type Schedule struct {
	Live []int32 // the regular schedule
	Due  []int32 // quarantined nodes whose re-probe is due
}

// Len returns the number of scheduled polls.
func (s Schedule) Len() int { return len(s.Live) + len(s.Due) }

// At returns the k-th scheduled poll's node and whether it is a probe.
func (s Schedule) At(k int) (node int32, probe bool) {
	p := s.pos(k)
	if int(p.live) < len(s.Live) && (int(p.due) == len(s.Due) || s.Live[p.live] < s.Due[p.due]) {
		return s.Live[p.live], false
	}
	return s.Due[p.due], true
}

// schedPos is a position in a schedule: how many live entries and how many
// due probes come before it.
type schedPos struct{ live, due int32 }

// pos returns schedule position k (0 ≤ k ≤ Len()) by binary search over
// the two ascending lists.
func (s Schedule) pos(k int) schedPos {
	live, due := s.Live, s.Due
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

// CycleReport summarizes one polling cycle.
type CycleReport struct {
	Cycle     int
	Polled    int // scheduled polls (regular + probes)
	Delivered int
	Retries   int
	Probes    int // quarantine re-probe attempts
	Restored  int // quarantined nodes a probe restored
	Corrected int // FEC corrections across delivered polls

	Live        int // on the regular schedule after this cycle
	Quarantined int
	Dropped     int

	MeanSNRdB   float64 // over delivered polls (0 if none)
	MeanDelayMs float64
	ChipRate    float64 // rate command of every attempt (0 = no controller)
}

// drawPair is one delivered poll's SNR and delay, kept in schedule order
// so the cycle means sum in the order a serial fold would.
type drawPair struct{ snrDB, delayMs float64 }

// rateObs is one rate-controller observation: a delivered regular poll's
// SNR, or (loss) an exhausted one.
type rateObs struct {
	snrDB float64
	loss  bool
}

// blockRecord is one block's working storage and what it leaves for the
// in-order fold: the counts it folded, how many of its live entries stayed
// live, and, in schedule order, everything whose order the cycle's output
// depends on. Records live in a ring that blocks reuse once folded, so
// their storage is bounded by ring size × block length.
type blockRecord struct {
	polls, retries, probes int
	quarantined, dropped   int
	corr                   int64
	kept                   int // live entries kept, compacted to the front of the block's live range

	pairs    []drawPair // delivered polls' (snr, delay), one per delivery
	calendar []int32    // nodes to calendar: failed probes, new quarantines
	restored []int32    // nodes restored by a delivered probe
	feed     []rateObs  // rate-controller feed (only with a controller)
	err      error      // the block's first failure

	chunk Chunk // the polls being drawn

	// Keeps the next ring record's counts, which its worker writes every
	// poll, off the cache lines holding this record's polls: sharing them
	// cost about 10% of a pooled 10⁶-node cycle on a 2-vCPU host.
	_ [128]byte
}

// reset clears the record for a new block, keeping its storage.
func (r *blockRecord) reset() {
	r.polls, r.retries, r.probes = 0, 0, 0
	r.quarantined, r.dropped, r.corr, r.kept = 0, 0, 0, 0
	r.pairs, r.calendar, r.restored, r.feed = r.pairs[:0], r.calendar[:0], r.restored[:0], r.feed[:0]
	r.err = nil
}

// cycleTally accumulates the folded block records of one cycle.
type cycleTally struct {
	polls, delivered, retries, probes int
	quarantined, dropped              int
	corr                              int64
	snrSum, delaySum                  float64
	kept                              int // live entries kept by the blocks folded so far
}

// cyclePool is the persistent worker pool. Workers live until Close and
// block on the jobs channel between cycles, so a steady-state cycle costs
// channel sends, not goroutine spawns. A worker runs block b into ring
// record b mod len(ring) and reports b on done.
type cyclePool struct {
	width    int
	jobs     chan int32
	done     chan int32
	finished []bool // per ring slot: its block has reported done
}

// Scheduler runs the polling MAC over nodes 0…n−1: one definition of a
// cycle for every tier, with a Backend supplying the polls.
//
// Per-cycle work is O(live nodes + due probes), not O(all nodes): the
// live list holds the regular schedule, and quarantined nodes sit in a
// probe calendar wheel keyed by their next re-probe cycle and cost nothing
// until it comes up. A steady-state cycle allocates nothing — the
// due-probe list, block records, live list, restore scratch, calendar
// buckets and worker pool are owned by the Scheduler and reused.
type Scheduler struct {
	policy  PollPolicy
	backend Backend
	block   int          // scheduled polls per block, a constant of the backend
	cols    *NodeColumns // per-node bookkeeping, SoA layout
	rate    *RateController
	workers int
	met     macMetrics

	live  []int32 // ascending node indices on the regular schedule, capacity n
	wheel probeWheel
	nQuar int
	nDrop int
	cycle int // cycles started: the probation clock

	due      []int32       // this cycle's due probes, ascending, disjoint from live
	bounds   []schedPos    // block b covers the schedule from bounds[b] to bounds[b+1]
	ring     []blockRecord // block b's record is ring[b%len(ring)]
	restored []int32

	// The running cycle's index, written by RunCycle before dispatch and
	// read by pool workers; the jobs send orders the accesses, and the
	// done receive orders a block's writes before its fold.
	running int
	pool    *cyclePool
}

// macMetrics instruments the scheduler. Zero value = noop. Counters flush
// once per cycle.
type macMetrics struct {
	polls       *telemetry.Counter
	delivered   *telemetry.Counter
	retries     *telemetry.Counter
	timeouts    *telemetry.Counter // attempts that returned no frame
	dropped     *telemetry.Counter // nodes removed by the liveness policy
	quarantined *telemetry.Counter // probation entries
	restored    *telemetry.Counter // probation exits via successful probe
	probes      *telemetry.Counter // quarantine re-probe attempts
	failed      *telemetry.Counter // cycles that returned an error
	failedPolls *telemetry.Counter // polls those cycles had scheduled
	liveNodes   *telemetry.Gauge
	recoveryLat *telemetry.Histogram // cycles from quarantine entry to restore
}

// NewScheduler builds a scheduler over cols, freshly allocated by
// NewNodeColumns, with every node on the regular schedule. block is the
// number of scheduled polls one pool task runs: large for a cheap backend,
// so a block amortizes its dispatch, and 1 for one that costs about a
// millisecond a poll, so the pool balances.
func NewScheduler(b Backend, cols *NodeColumns, block int, policy PollPolicy) (*Scheduler, error) {
	if b == nil {
		return nil, fmt.Errorf("mac: backend required")
	}
	if cols == nil || cols.Len() < 1 {
		return nil, fmt.Errorf("mac: scheduler needs at least one node")
	}
	if block < 1 {
		return nil, fmt.Errorf("mac: block length %d, want ≥ 1", block)
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	n := cols.Len()
	s := &Scheduler{
		policy:  policy,
		backend: b,
		block:   block,
		cols:    cols,
		workers: 1,
		live:    make([]int32, n),
		wheel:   newProbeWheel(policy.ProbeHorizon()),
	}
	for i := range s.live {
		s.live[i] = int32(i)
	}
	return s, nil
}

// Instrument registers the scheduler's metrics, and the rate controller's
// if one is attached, in reg. Call before RunCycle; a nil registry leaves
// the scheduler uninstrumented.
func (s *Scheduler) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.met = macMetrics{
		polls: reg.Counter("vab_mac_polls_total",
			"Poll attempts issued (including retries)."),
		delivered: reg.Counter("vab_mac_deliveries_total",
			"Polls that delivered a frame within the retry budget."),
		retries: reg.Counter("vab_mac_retries_total",
			"Retransmission attempts beyond the first poll."),
		timeouts: reg.Counter("vab_mac_timeouts_total",
			"Poll attempts that elicited no decodable response."),
		dropped: reg.Counter("vab_mac_nodes_dropped_total",
			"Nodes removed from the schedule by the liveness policy."),
		quarantined: reg.Counter("vab_mac_quarantine_entries_total",
			"Nodes placed in probation by the liveness policy."),
		restored: reg.Counter("vab_mac_quarantine_exits_total",
			"Quarantined nodes restored by a successful re-probe."),
		probes: reg.Counter("vab_mac_probes_total",
			"Single-attempt re-probes of quarantined nodes."),
		failed: reg.Counter("vab_mac_failed_cycles_total",
			"Cycles that returned an error and resynced the schedule."),
		failedPolls: reg.Counter("vab_mac_failed_cycle_polls_total",
			"Polls scheduled in failed cycles; no other counter reports their outcomes."),
		liveNodes: reg.Gauge("vab_mac_live_nodes",
			"Nodes currently in the polling schedule."),
		recoveryLat: reg.Histogram("vab_mac_recovery_cycles",
			"Cycles a node spent quarantined before a probe restored it.",
			telemetry.LinearBuckets(1, 4, 16)),
	}
	s.met.liveNodes.Set(float64(len(s.live)))
	if s.rate != nil {
		s.rate.Instrument(reg)
	}
}

// SetRateController attaches a rate controller: every delivered regular
// poll feeds Observe with its reported SNR and every exhausted one feeds
// ObserveLoss, in schedule order, so sustained impairment steps the link
// down to a more robust chip rate and recovery climbs it back. The
// command is read once per cycle and handed to the Backend; acting on it
// (rebuilding the PHY) is the backend's job — see core.System.SetChipRate.
func (s *Scheduler) SetRateController(rc *RateController) { s.rate = rc }

// SetWorkers bounds the worker pool (n <= 0 selects runtime.NumCPU()).
// Cycle outcomes are bit-identical at any width: blocks are cut from the
// schedule alone, each node's state is written only by the block that
// owns it, and everything whose order shows in the output folds in block
// order. The pool is persistent: workers start on the first parallel
// cycle and live until Close or the next width change. A width above one
// requires the Backend's Draw to tolerate concurrent calls for disjoint
// polls.
func (s *Scheduler) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.workers = n
}

// Workers returns the pool width SetWorkers resolved (1 by default).
func (s *Scheduler) Workers() int { return s.workers }

// Close releases the persistent worker pool (if any). The scheduler
// remains usable — the next parallel cycle restarts the pool — so Close is
// safe to defer as soon as the scheduler is built.
func (s *Scheduler) Close() {
	if s.pool != nil {
		close(s.pool.jobs)
		s.pool = nil
	}
}

// RunCycle polls every live node once (with the policy's retry budget),
// re-probes the quarantined nodes whose backoff elapsed, and folds the
// outcomes through the NodeColumns transitions.
//
// Three phases:
//
//  1. Decision (O(due probes)): filter this cycle's wheel bucket into the
//     due-probe list and snapshot the rate command. The schedule is the
//     ascending merge of the live list and that list, in which each node
//     appears at most once; it is read in place, never copied. The
//     Backend sees it in BeginCycle.
//  2. Execution (parallel): the schedule is cut into blocks of `block`
//     polls — a contiguous live range plus the due probes between its
//     ends — and run on the worker pool. A block has the Backend draw
//     chunks of polls, folds each poll into its node's columns as soon as
//     it is drawn, and compacts its own live range in place, dropping
//     leavers. Only the block that owns a node writes its columns, so
//     blocks share no state.
//  3. Fold (in block order, overlapping execution): the dispatching
//     goroutine folds block b's record as soon as blocks 0…b have
//     finished — counts, the float sums of the cycle means, calendar
//     inserts, restores and the rate-controller feed, in the sequence a
//     serial fold would see — and closes the gap between b's kept live
//     entries and the ones before them. Then restored nodes merge back
//     into the live list and telemetry counters flush.
//
// Every attempt of a cycle, retries included, runs at the rate command
// read in phase 1; a step the fold makes shows first in the next cycle.
//
// A poll error comes back naming the node; a panic inside a block comes
// back as a *workpool.PanicError whose Index is the node being drawn or
// folded. Either is the lowest failing block's, at any worker count.
// RunCycle returns only after every block it dispatched has finished, and
// a failed cycle leaves the scheduler ready for the next one (see resync),
// so a caller may log the error and keep polling.
func (s *Scheduler) RunCycle() (CycleReport, error) {
	cycle := s.cycle
	s.cycle++
	rep := CycleReport{Cycle: cycle}
	if s.rate != nil {
		rep.ChipRate = s.rate.Rate()
	}

	// Decision phase. A node calendared twice for this cycle (a stale
	// duplicate, or an overflow entry merged with its bucket) is adjacent
	// in the ascending bucket and probed once, keeping every node in at
	// most one block. Stale entries (restored or re-quarantined nodes)
	// fail ProbeDueAt; their live entry or newer calendar slot owns them.
	s.due = s.due[:0]
	for _, n := range s.wheel.take(cycle) {
		if k := len(s.due); k > 0 && s.due[k-1] == n {
			continue
		}
		if s.cols.ProbeDueAt(int(n), cycle) {
			s.due = append(s.due, n)
		}
	}
	sched := Schedule{Live: s.live, Due: s.due}
	rep.Polled = sched.Len()
	if err := s.backend.BeginCycle(cycle, rep.ChipRate, sched); err != nil {
		s.resync(cycle, rep.Polled)
		return rep, err
	}

	// Execution and fold phases.
	blocks := (rep.Polled + s.block - 1) / s.block
	s.bounds = s.bounds[:0]
	for b := 0; b < blocks; b++ {
		s.bounds = append(s.bounds, sched.pos(b*s.block))
	}
	s.bounds = append(s.bounds, schedPos{live: int32(len(s.live)), due: int32(len(s.due))})
	s.restored = s.restored[:0]
	s.running = cycle
	var t cycleTally
	if err := s.dispatch(blocks, &t); err != nil {
		s.resync(cycle, rep.Polled)
		return rep, err
	}
	s.live = s.live[:t.kept]

	rep.Delivered = t.delivered
	rep.Retries = t.retries
	rep.Probes = t.probes
	rep.Restored = len(s.restored)
	rep.Corrected = int(t.corr)
	s.nQuar += t.quarantined - rep.Restored
	s.nDrop += t.dropped
	s.met.polls.Add(int64(t.polls))
	s.met.delivered.Add(int64(t.delivered))
	s.met.retries.Add(int64(t.retries))
	s.met.timeouts.Add(int64(t.polls - t.delivered))
	s.met.probes.Add(int64(t.probes))
	s.met.quarantined.Add(int64(t.quarantined))
	s.met.restored.Add(int64(rep.Restored))
	s.met.dropped.Add(int64(t.dropped))

	// The restored merge back into the live list, in place.
	if len(s.restored) > 0 {
		s.live = mergeRestored(s.live, s.restored)
	}
	s.met.liveNodes.Set(float64(len(s.live)))

	if t.delivered > 0 {
		rep.MeanSNRdB = t.snrSum / float64(t.delivered)
		rep.MeanDelayMs = t.delaySum / float64(t.delivered)
	}
	rep.Live = len(s.live)
	rep.Quarantined = s.nQuar
	rep.Dropped = s.nDrop
	return rep, nil
}

// mergeRestored merges the ascending restored nodes into the ascending
// live list in place and returns the merged list. The two are disjoint and
// live has capacity for every node, so the merge fits; it runs from the
// back, where each write lands on a slot whose live entry has already
// moved.
func mergeRestored(live, restored []int32) []int32 {
	i, j := len(live)-1, len(restored)-1
	live = live[:len(live)+len(restored)]
	for k := len(live) - 1; j >= 0; k-- {
		if i >= 0 && live[i] > restored[j] {
			live[k] = live[i]
			i--
		} else {
			live[k] = restored[j]
			j--
		}
	}
	return live
}

// resync rebuilds the live list, the probe calendar and the quarantine
// and drop counts from the columns after failed cycle `cycle`. The failed
// cycle's in-order fold stopped short of the failing block, so the live
// list may hold stale or duplicate entries, and blocks that ran past it
// quarantined, dropped or restored nodes the fold never calendared or
// merged. Every poll a block folded wrote its node's columns, though, so
// they are the one consistent record: live nodes rejoin the regular
// schedule, and every quarantined node is calendared at its next
// re-probe, a due one (such as a probe the failed cycle took from the
// wheel but never ran) at the next cycle. The failed cycle's counters are
// not flushed, and its rate-controller feed stops at the failing block;
// the failed-cycle counters record the cycle and its `polls` scheduled
// polls instead. O(nodes), on the error path only.
func (s *Scheduler) resync(cycle, polls int) {
	s.met.failed.Inc()
	s.met.failedPolls.Add(int64(polls))
	s.live = s.live[:0]
	s.wheel.clear()
	s.nQuar, s.nDrop = 0, 0
	for i := 0; i < s.cols.Len(); i++ {
		switch {
		case s.cols.Live(i):
			s.live = append(s.live, int32(i))
		case s.cols.Quarantined(i):
			s.nQuar++
			s.wheel.schedule(int32(i), s.cols.NextProbeAt(i), cycle)
		default:
			s.nDrop++
		}
	}
	s.met.liveNodes.Set(float64(len(s.live)))
}

// dispatch runs blocks 0…blocks-1 and folds each block's record, in block
// order, as soon as it and every block before it have finished. At most
// len(ring) blocks are in flight, so a record is reused only after its
// fold. On a block's error dispatch stops handing out blocks, waits for
// those in flight and returns the error — the lowest failing block's,
// since every block before it folded cleanly. Blocks are deterministic
// spans of the schedule over disjoint node sets, so results are
// independent of which worker runs which block.
func (s *Scheduler) dispatch(blocks int, t *cycleTally) error {
	width := s.workers
	if n := 2 * width; len(s.ring) != n {
		// A block schedules each node at most once, so no record ever
		// holds more pairs than this.
		s.ring = make([]blockRecord, n)
		for i := range s.ring {
			s.ring[i].pairs = make([]drawPair, 0, min(s.block, s.cols.Len()))
		}
	}
	if width == 1 || blocks <= 1 {
		for b := 0; b < blocks; b++ {
			s.runBlock(b)
			if err := s.foldBlock(b, t); err != nil {
				return err
			}
		}
		return nil
	}
	s.ensurePool(width)
	p, ring := s.pool, len(s.ring)
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
			err = s.foldBlock(next, t)
		}
		next++
	}
	return err
}

// ensurePool starts (or resizes) the persistent worker pool.
func (s *Scheduler) ensurePool(width int) {
	if s.pool != nil && s.pool.width == width {
		return
	}
	s.Close()
	// Both channels hold a full ring of blocks, so neither the dispatcher
	// nor a worker ever blocks on a send.
	p := &cyclePool{
		width:    width,
		jobs:     make(chan int32, len(s.ring)),
		done:     make(chan int32, len(s.ring)),
		finished: make([]bool, len(s.ring)),
	}
	s.pool = p
	for w := 0; w < width; w++ {
		go func() {
			pprof.Do(context.Background(), pprof.Labels("vab_stage", poolStage), func(context.Context) {
				for b := range p.jobs {
					s.runBlock(int(b))
					p.done <- b
				}
			})
		}()
	}
}

// runBlock executes block b into its ring record. A poll error or a
// recovered panic lands in the record, naming the node the block had
// reached.
func (s *Scheduler) runBlock(b int) {
	rec := &s.ring[b%len(s.ring)]
	rec.reset()
	c := &rec.chunk
	*c = Chunk{Polls: c.buf[:0], s: s, rec: rec, cycle: s.running}
	defer func() {
		if v := recover(); v != nil {
			rec.err = &workpool.PanicError{Stage: poolStage, Index: int(c.at().Node), Value: v, Stack: debug.Stack()}
		}
	}()
	from, to := s.bounds[b], s.bounds[b+1]
	i, j := int(from.live), int(from.due)
	c.kept = i // the block's live range compacts in place; kept never passes i
	budget := int32(1 + s.policy.MaxRetries)
	for i < int(to.live) || j < int(to.due) {
		n := 0
		for ; n < ChunkLen && (i < int(to.live) || j < int(to.due)); n++ {
			if j < int(to.due) && (i == int(to.live) || s.due[j] < s.live[i]) {
				c.buf[n] = Poll{Node: s.due[j], Attempts: 1, Probe: true} // probes are single-attempt
				j++
			} else {
				c.buf[n] = Poll{Node: s.live[i], Attempts: budget}
				i++
			}
		}
		c.Polls, c.folded = c.buf[:n], 0
		err := s.backend.Draw(c)
		if err == nil && c.folded != n {
			err = fmt.Errorf("backend folded %d of %d polls", c.folded, n)
		}
		if err != nil {
			kind, p := "poll", c.at()
			if p.Probe {
				kind = "probe"
			}
			rec.err = fmt.Errorf("mac: %s %d: %w", kind, p.Node, err)
			return
		}
	}
	rec.kept = c.kept - int(from.live)
}

// Fold folds the outcome of the chunk's next poll — Polls[k], k the
// number folded before — into the node's columns, notes in the block's
// record what the in-order fold must see, and compacts the block's live
// range. A backend calls it once per poll, in order.
func (c *Chunk) Fold(out *Outcome) {
	s, rec, p := c.s, c.rec, c.Polls[c.folded]
	ni := int(p.Node)
	attempts := int(out.Attempts)
	rec.polls += attempts
	if p.Probe {
		rec.probes++
	} else if attempts > 1 {
		rec.retries += attempts - 1
	}
	if st := s.cols.Stats; st != nil {
		st.Polls[ni] += int32(attempts)
		if !p.Probe {
			st.Retries[ni] += int32(attempts - 1)
		}
	}
	stays := false
	switch {
	case out.Delivered:
		s.cols.FoldDeliveredAt(ni, out.SNRdB)
		rec.pairs = append(rec.pairs, drawPair{out.SNRdB, out.DelayMs})
		rec.corr += int64(out.Corrected)
		if p.Probe {
			s.cols.RestoreAt(ni, c.cycle)
			rec.restored = append(rec.restored, p.Node)
			break // probes are off-schedule and never feed the rate controller
		}
		if s.rate != nil {
			rec.feed = append(rec.feed, rateObs{snrDB: out.SNRdB})
		}
		stays = true
	case p.Probe:
		s.policy.FoldProbeFailureAt(s.cols, ni, c.cycle)
		rec.calendar = append(rec.calendar, p.Node)
	default:
		if s.rate != nil {
			rec.feed = append(rec.feed, rateObs{loss: true})
		}
		switch s.policy.FoldPollFailureAt(s.cols, ni, c.cycle) {
		case LivenessQuarantined:
			rec.quarantined++
			rec.calendar = append(rec.calendar, p.Node)
		case LivenessDropped:
			rec.dropped++
		default:
			stays = true
		}
	}
	if stays {
		s.live[c.kept] = p.Node
		c.kept++
	}
	c.folded++
}

// foldBlock folds block b's finished record into the cycle: counts, the
// delivered pairs' float sums, calendar inserts, restores and the rate
// feed, in schedule order. It then closes the gap between the block's kept
// live entries and those of the blocks before it; the copy lands below the
// block's own range, which no running block reads.
func (s *Scheduler) foldBlock(b int, t *cycleTally) error {
	r := &s.ring[b%len(s.ring)]
	if r.err != nil {
		return r.err
	}
	t.polls += r.polls
	t.delivered += len(r.pairs)
	t.retries += r.retries
	t.probes += r.probes
	t.quarantined += r.quarantined
	t.dropped += r.dropped
	t.corr += r.corr
	snrSum, delaySum := t.snrSum, t.delaySum // in registers: the sums are a serial chain
	for _, d := range r.pairs {
		snrSum += d.snrDB
		delaySum += d.delayMs
	}
	t.snrSum, t.delaySum = snrSum, delaySum
	cycle := s.running
	for _, n := range r.calendar {
		s.wheel.schedule(n, s.cols.NextProbeAt(int(n)), cycle)
	}
	for _, n := range r.restored {
		s.met.recoveryLat.Observe(float64(cycle - int(s.cols.QuarantinedAt[n]) + 1))
	}
	s.restored = append(s.restored, r.restored...)
	for _, o := range r.feed {
		if o.loss {
			s.rate.ObserveLoss()
		} else {
			s.rate.Observe(o.snrDB)
		}
	}
	if lo := int(s.bounds[b].live); t.kept != lo {
		copy(s.live[t.kept:], s.live[lo:lo+r.kept])
	}
	t.kept += r.kept
	return nil
}
