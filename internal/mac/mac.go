// Package mac implements the medium access layer of a VAB network: a
// reader-initiated polling protocol over the shared acoustic channel.
//
// Backscatter nodes cannot hear each other (their receivers only detect the
// strong reader downlink), so all coordination flows through the reader: it
// polls nodes one at a time, addressing each by its link-layer address, and
// retries lost rounds with bounded attempts. Broadcast queries elicit
// responses from every powered node and are used for discovery, with a
// framed-slotted backoff resolving collisions (nodes answer in a
// pseudo-random slot derived from their address).
package mac

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"vab/internal/telemetry"
	"vab/internal/workpool"
)

// PollPolicy tunes the polling scheduler.
type PollPolicy struct {
	// MaxRetries bounds per-node retransmissions within one cycle.
	MaxRetries int
	// DropAfter removes a node from the schedule after this many
	// consecutive failed cycles (0 = never drop). With Probation set the
	// node is quarantined instead of permanently removed.
	DropAfter int

	// Probation replaces permanent drops with quarantine: after DropAfter
	// silent cycles the node leaves the regular schedule but receives
	// single-attempt re-probes at exponentially backed-off intervals
	// (ProbeBackoffBase cycles, doubling up to ProbeBackoffMax). One
	// successful probe restores the node. A transient impairment — a
	// bubble cloud, a brownout while a mooring recharges — thereby costs
	// rounds, not the node; the one-way DropAfter removal remains for
	// operators who prefer it.
	Probation bool
	// ProbeBackoffBase is the first quarantine re-probe interval in
	// cycles (0 → 2).
	ProbeBackoffBase int
	// ProbeBackoffMax caps the re-probe interval in cycles (0 → 16).
	ProbeBackoffMax int
}

// DefaultPollPolicy matches the field campaign: two retries, nodes
// dropped after five silent cycles.
func DefaultPollPolicy() PollPolicy {
	return PollPolicy{MaxRetries: 2, DropAfter: 5}
}

// probeBase resolves the first re-probe interval.
func (p PollPolicy) probeBase() int {
	if p.ProbeBackoffBase <= 0 {
		return 2
	}
	return p.ProbeBackoffBase
}

// probeMax resolves the re-probe interval cap.
func (p PollPolicy) probeMax() int {
	if p.ProbeBackoffMax <= 0 {
		return 16
	}
	return p.ProbeBackoffMax
}

// Validate reports nonsensical policies.
func (p PollPolicy) Validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("mac: negative retries")
	}
	if p.DropAfter < 0 {
		return fmt.Errorf("mac: negative drop threshold")
	}
	if p.ProbeBackoffBase < 0 || p.ProbeBackoffMax < 0 {
		return fmt.Errorf("mac: negative probe backoff")
	}
	if p.ProbeBackoffBase > 0 && p.ProbeBackoffMax > 0 && p.ProbeBackoffBase > p.ProbeBackoffMax {
		return fmt.Errorf("mac: probe backoff base %d exceeds max %d", p.ProbeBackoffBase, p.ProbeBackoffMax)
	}
	return nil
}

// RoundResult is the outcome of one poll attempt, as reported by the
// underlying PHY/reader stack.
type RoundResult struct {
	OK      bool
	Payload []byte
	SNRdB   float64
}

// Transceiver abstracts the physical exchange: the scheduler calls Poll
// once per attempt. Implementations wrap core.System (waveform-level) or a
// link-budget sampler (campaign-level). When the scheduler's worker pool
// is widened past one (SetWorkers), Poll must tolerate concurrent calls
// for *different* addresses — the pool never polls one address twice at
// once.
//
// chipRate is the rate controller's command. The scheduler snapshots it
// once per execution wave and hands the same value to every poll of that
// wave, so the worker that owns the polled node's PHY applies the
// stepdown itself and no poll ever observes a half-stepped controller —
// the property that keeps concurrent cycles bit-identical to serial ones.
// A chipRate of 0 means "no command" (no controller attached).
type Transceiver interface {
	Poll(addr byte, chipRate float64) (RoundResult, error)
}

// NodeState is one node's scheduler bookkeeping, as reports see it
// (NodeColumns.State materializes it).
type NodeState struct {
	Addr         byte
	Polls        int
	Successes    int
	Retries      int
	SilentCycles int
	Dropped      bool
	LastSNRdB    float64

	// Health is an EWMA of per-cycle delivery in [0, 1] (1 = every recent
	// cycle delivered), the score the probation policy keys on.
	Health float64
	// Quarantined marks a node in probation: off the regular schedule,
	// awaiting a backed-off re-probe.
	Quarantined bool
	// QuarantineEntries counts how many times the node entered probation.
	QuarantineEntries int
}

// Scheduler runs the polling MAC over a set of node addresses.
//
// RunCycle is split into a pure decision phase (which nodes this cycle
// owes a poll, probation and retry bookkeeping — always executed on the
// caller's goroutine in ascending address order) and an execution phase
// that fans each wave of polls over a bounded worker pool. Waves are
// separated by barriers: retry decisions for wave n+1 only ever see the
// complete results of wave n, so a cycle's outcome is bit-identical at
// any pool width.
type Scheduler struct {
	policy  PollPolicy
	trx     Transceiver
	cols    *NodeColumns // fold state, indexed by node address
	order   []byte       // registered addresses, ascending
	cycle   int          // completed RunCycle count (the probation clock)
	rate    *RateController
	workers int // execution-phase pool width (0 or 1 = serial)
	met     macMetrics
}

// macMetrics instruments the polling loop. Zero value = noop.
type macMetrics struct {
	polls       *telemetry.Counter
	delivered   *telemetry.Counter
	retries     *telemetry.Counter
	timeouts    *telemetry.Counter // attempts that returned no frame
	dropped     *telemetry.Counter // nodes removed by the liveness policy
	quarantined *telemetry.Counter // probation entries
	restored    *telemetry.Counter // probation exits via successful probe
	probes      *telemetry.Counter // quarantine re-probe attempts
	liveNodes   *telemetry.Gauge
	pollTime    *telemetry.Histogram
	recoveryLat *telemetry.Histogram // cycles from quarantine entry to restore

	waveWidth *telemetry.Histogram // polls fanned out per execution wave
	waveOcc   *telemetry.Histogram // busy fraction of the configured pool
	straggler *telemetry.Histogram // wave wall time beyond a balanced pool
	poolSize  *telemetry.Gauge     // configured execution-pool width
}

// Instrument registers MAC metrics in reg and starts recording. Call
// before RunCycle; a nil registry leaves the scheduler uninstrumented.
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
		liveNodes: reg.Gauge("vab_mac_live_nodes",
			"Nodes currently in the polling schedule."),
		pollTime: reg.Histogram("vab_mac_poll_seconds",
			"Wall time of one poll attempt (transceiver round).", nil),
		recoveryLat: reg.Histogram("vab_mac_recovery_cycles",
			"Cycles a node spent quarantined before a probe restored it.",
			telemetry.LinearBuckets(1, 4, 16)),
		waveWidth: reg.Histogram("vab_mac_wave_width",
			"Polls fanned out per execution wave.",
			telemetry.LinearBuckets(1, 8, 16)),
		waveOcc: reg.Histogram("vab_mac_wave_pool_occupancy",
			"Fraction of the configured worker pool busy during a wave.",
			telemetry.LinearBuckets(0.125, 0.125, 8)),
		straggler: reg.Histogram("vab_mac_wave_straggler_seconds",
			"Wave wall time in excess of a perfectly balanced pool (straggler overhang).", nil),
		poolSize: reg.Gauge("vab_mac_wave_pool_size",
			"Configured execution-phase worker-pool width."),
	}
	s.met.liveNodes.Set(float64(s.liveCount()))
	s.met.poolSize.Set(float64(s.poolWidth()))
}

// liveCount returns the number of nodes still in the regular schedule
// (neither dropped nor quarantined).
func (s *Scheduler) liveCount() int {
	n := 0
	for _, a := range s.order {
		if s.cols.Live(int(a)) {
			n++
		}
	}
	return n
}

// SetRateController attaches a rate controller: every delivered cycle
// feeds Observe with the node's reported SNR and every lost cycle feeds
// ObserveLoss, so sustained impairment steps the link down to a more
// robust chip rate and recovery climbs it back. The scheduler only drives
// the controller; acting on Rate() (rebuilding the PHY) is the
// transceiver owner's job — see core.System.SetChipRate.
func (s *Scheduler) SetRateController(rc *RateController) { s.rate = rc }

// NewScheduler builds a scheduler over the given transceiver.
func NewScheduler(trx Transceiver, policy PollPolicy) (*Scheduler, error) {
	if trx == nil {
		return nil, fmt.Errorf("mac: transceiver required")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{
		policy: policy,
		trx:    trx,
		cols:   NewNodeColumns(256),
	}, nil
}

// AddNode registers a node address for polling. Duplicate adds are no-ops.
func (s *Scheduler) AddNode(addr byte) {
	i, ok := slices.BinarySearch(s.order, addr)
	if ok {
		return
	}
	s.order = slices.Insert(s.order, i, addr)
	s.cols.Addr[addr] = addr
	s.met.liveNodes.Set(float64(s.liveCount()))
}

// Nodes returns the bookkeeping for every registered node, ordered by
// address.
func (s *Scheduler) Nodes() []NodeState {
	out := make([]NodeState, 0, len(s.order))
	for _, a := range s.order {
		out = append(out, s.cols.State(int(a)))
	}
	return out
}

// CycleReport summarizes one full polling cycle.
type CycleReport struct {
	Polled    int
	Delivered int
	Retries   int
	Probes    int // quarantine re-probe attempts this cycle
	Payloads  map[byte][]byte
}

// SetWorkers bounds the execution-phase worker pool: each wave's polls
// run on up to n goroutines. n <= 0 selects runtime.NumCPU(); the default
// (and n == 1) polls serially on the caller's goroutine. Widths above one
// require the transceiver to tolerate concurrent Poll calls for
// distinct addresses (core.Fleet does: each node's System owns its
// channel, RNG stream and scratch). Cycle outcomes — reports, payloads,
// node state, rate decisions — are bit-identical at any width; only wall
// clock changes.
func (s *Scheduler) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s.workers = n
	s.met.poolSize.Set(float64(n))
}

// poolWidth resolves the configured pool width (≥ 1).
func (s *Scheduler) poolWidth() int {
	if s.workers <= 0 {
		return 1
	}
	return s.workers
}

// waveSlot is one poll of an execution wave: the decision phase fills the
// target, the execution phase fills the outcome.
type waveSlot struct {
	addr  byte
	probe bool
	res   RoundResult
	err   error
	dur   time.Duration
}

// RunCycle polls every live node once (with retries), re-probes any
// quarantined node whose backoff has elapsed, and returns the cycle
// summary.
//
// The cycle runs as a sequence of waves. Wave 0 carries every scheduled
// poll plus the due re-probes; wave n+1 carries the retries of wave n's
// failed polls (probes are single-attempt and never retry). Polls within
// a wave are independent — each targets a distinct node — so the wave
// fans out over the worker pool (SetWorkers) and a barrier collects it
// before any retry or probation decision is made. All node-state
// mutation, report assembly and rate-controller feeding happen between
// waves on the caller's goroutine in ascending address order, which is
// what makes the cycle bit-identical at any pool width.
func (s *Scheduler) RunCycle() (CycleReport, error) {
	rep := CycleReport{Payloads: make(map[byte][]byte)}
	cycle := s.cycle
	s.cycle++

	// Decision phase: the polls this cycle owes, in ascending address
	// order — every live node, plus quarantined nodes whose re-probe
	// backoff has elapsed.
	wave := make([]waveSlot, 0, len(s.order))
	for _, addr := range s.order {
		switch i := int(addr); {
		case s.cols.Live(i):
			wave = append(wave, waveSlot{addr: addr})
		case s.cols.ProbeDueAt(i, cycle):
			wave = append(wave, waveSlot{addr: addr, probe: true})
		}
	}
	rep.Polled = len(wave)

	for attempt := 0; len(wave) > 0; attempt++ {
		// Pre-dispatch bookkeeping, in address order so the counters a
		// serial run would produce are reproduced exactly.
		for i := range wave {
			a := wave[i].addr
			s.cols.Polls[a]++
			s.met.polls.Inc()
			if attempt > 0 {
				s.cols.Retries[a]++
				rep.Retries++
				s.met.retries.Inc()
			}
			if wave[i].probe {
				rep.Probes++
				s.met.probes.Inc()
			}
		}

		s.runWave(wave)

		// Barrier passed: fold the wave's results into scheduler state in
		// address order and decide the retry wave.
		retry := wave[:0:0]
		for i := range wave {
			slot := &wave[i]
			if slot.err != nil {
				kind := "poll"
				if slot.probe {
					kind = "probe"
				}
				return rep, fmt.Errorf("mac: %s %d: %w", kind, slot.addr, slot.err)
			}
			switch {
			case slot.res.OK:
				s.finishDelivered(slot, cycle, &rep)
			case slot.probe:
				s.met.timeouts.Inc()
				s.policy.FoldProbeFailureAt(s.cols, int(slot.addr), cycle)
			case attempt < s.policy.MaxRetries:
				s.met.timeouts.Inc()
				retry = append(retry, waveSlot{addr: slot.addr})
			default:
				s.met.timeouts.Inc()
				s.finishFailedPoll(slot.addr, cycle)
			}
		}
		wave = retry
	}
	return rep, nil
}

// runWave executes one wave of polls over the worker pool. The rate
// controller's command is snapshotted once, before dispatch, and handed
// to every poll; the controller is never read or written while workers
// are in flight. Poll errors land in their slots for the address-order
// fold, and so does a panicking poll (as a *workpool.PanicError), so the
// fold reports the lowest-address failure whichever kind it is.
func (s *Scheduler) runWave(wave []waveSlot) {
	var cmdRate float64
	if s.rate != nil {
		cmdRate = s.rate.Rate()
	}
	workers := min(s.poolWidth(), len(wave))
	start := time.Now()
	err := workpool.Run(len(wave), workers, "mac_poll", func(i int) error {
		slot := &wave[i]
		pollStart := time.Now()
		slot.res, slot.err = s.trx.Poll(slot.addr, cmdRate)
		slot.dur = time.Since(pollStart)
		return nil
	})
	if err != nil {
		// fn never fails, so err is the lowest-index panic; any
		// higher-index panic sits behind it in the fold.
		wave[err.(*workpool.PanicError).Index].err = err
	}
	s.observeWave(wave, workers, time.Since(start))
}

// observeWave records the wave's telemetry: its width, how much of the
// configured pool it kept busy, per-poll latencies, and the straggler
// overhang — wall time beyond sum(poll durations)/workers, i.e. what a
// perfectly balanced pool would not have spent.
func (s *Scheduler) observeWave(wave []waveSlot, workers int, wall time.Duration) {
	var sum time.Duration
	for i := range wave {
		s.met.pollTime.Observe(wave[i].dur.Seconds())
		sum += wave[i].dur
	}
	s.met.waveWidth.Observe(float64(len(wave)))
	s.met.waveOcc.Observe(float64(workers) / float64(s.poolWidth()))
	if overhang := wall - sum/time.Duration(workers); overhang > 0 {
		s.met.straggler.Observe(overhang.Seconds())
	} else {
		s.met.straggler.Observe(0)
	}
}

// finishDelivered folds a delivered poll (or restoring probe) into the
// node and cycle state. The node-state transition itself lives in the
// exported column fold (columns.go), shared with the link-abstraction
// tier; this method adds the scheduler's report assembly, metrics and
// rate-controller feeding.
func (s *Scheduler) finishDelivered(slot *waveSlot, cycle int, rep *CycleReport) {
	s.cols.FoldDeliveredAt(int(slot.addr), slot.res.SNRdB)
	rep.Payloads[slot.addr] = slot.res.Payload
	rep.Delivered++
	s.met.delivered.Inc()
	if slot.probe {
		s.met.restored.Inc()
		s.met.recoveryLat.Observe(float64(s.cols.RestoreAt(int(slot.addr), cycle)))
		s.met.liveNodes.Set(float64(s.liveCount()))
		return // probes are off-schedule and never feed the rate controller
	}
	if s.rate != nil {
		s.rate.Observe(slot.res.SNRdB)
	}
}

// finishFailedPoll applies the liveness policy to a node whose retry
// budget is exhausted, recording the transition's metrics and feeding the
// rate controller's loss signal.
func (s *Scheduler) finishFailedPoll(addr byte, cycle int) {
	if s.rate != nil {
		s.rate.ObserveLoss()
	}
	switch s.policy.FoldPollFailureAt(s.cols, int(addr), cycle) {
	case LivenessQuarantined:
		s.met.quarantined.Inc()
		s.met.liveNodes.Set(float64(s.liveCount()))
	case LivenessDropped:
		s.met.dropped.Inc()
		s.met.liveNodes.Set(float64(s.liveCount()))
	}
}

// DeliveryRatio returns delivered/polled across all completed cycles for a
// node, or 0 if it was never polled.
func (s *Scheduler) DeliveryRatio(addr byte) float64 {
	st := s.cols.State(int(addr))
	if st.Polls == 0 {
		return 0
	}
	return float64(st.Successes) / float64(st.Polls)
}

// DiscoverySlot returns the response slot a node picks inside a discovery
// window: a hash of its address and the round nonce, uniform over the
// window. Nodes compute this with one multiply — cheap enough for
// microwatt logic.
func DiscoverySlot(addr byte, nonce uint16, slots int) int {
	h := uint32(addr)*2654435761 + uint32(nonce)*40503
	h ^= h >> 13
	return int(h % uint32(slots))
}

// SimulateDiscovery models one framed-slotted discovery round: nodes pick
// slots via DiscoverySlot; slots with exactly one respondent succeed (the
// reader cannot separate colliding backscatter bursts). It returns the
// discovered addresses. capture, in [0,1), is the probability that a
// two-way collision still decodes (power capture effect), evaluated with
// rng.
func SimulateDiscovery(addrs []byte, nonce uint16, slots int, capture float64, rng *rand.Rand) []byte {
	bySlot := make(map[int][]byte)
	for _, a := range addrs {
		s := DiscoverySlot(a, nonce, slots)
		bySlot[s] = append(bySlot[s], a)
	}
	var found []byte
	for _, group := range bySlot {
		switch {
		case len(group) == 1:
			found = append(found, group[0])
		case len(group) == 2 && rng != nil && rng.Float64() < capture:
			found = append(found, group[rng.Intn(2)])
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i] < found[j] })
	return found
}

// DiscoverAll runs discovery rounds until every address is found or
// maxRounds is exhausted, returning the rounds used and the found set.
func DiscoverAll(addrs []byte, slots int, capture float64, rng *rand.Rand, maxRounds int) (int, []byte) {
	found := make(map[byte]bool)
	var nonce uint16
	rounds := 0
	for ; rounds < maxRounds && len(found) < len(addrs); rounds++ {
		var missing []byte
		for _, a := range addrs {
			if !found[a] {
				missing = append(missing, a)
			}
		}
		nonce++
		for _, a := range SimulateDiscovery(missing, nonce, slots, capture, rng) {
			found[a] = true
		}
	}
	out := make([]byte, 0, len(found))
	for a := range found {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return rounds, out
}
