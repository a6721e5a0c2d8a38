package mac

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vab/internal/faults"
	"vab/internal/telemetry"
	"vab/internal/workpool"
)

// probationPolicy is the recovery-stack policy the cycle tests share.
func probationPolicy() PollPolicy {
	return PollPolicy{
		MaxRetries: 2, DropAfter: 3,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
	}
}

// fixedBackend returns a backend whose nodes always deliver (ok[i]) or
// never do.
func fixedBackend(ok ...bool) *scriptBackend {
	b := newScriptBackend(len(ok))
	for i, deliver := range ok {
		if deliver {
			b.tapes[i] = []bool{true}
		}
	}
	return b
}

// statsColumns allocates columns for n nodes with statistics attached, so
// tests can read every NodeState field.
func statsColumns(n int) *NodeColumns {
	c := NewNodeColumns(n)
	c.Stats = NewNodeStats(n)
	return c
}

// newSched builds a scheduler over b's nodes, statistics attached, with
// the given block length.
func newSched(t *testing.T, b *scriptBackend, block int, policy PollPolicy) *Scheduler {
	t.Helper()
	s, err := NewScheduler(b, statsColumns(len(b.calls)), block, policy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// churnBackend scripts a large fleet with probation churn: every fourth
// node delivers one attempt in eight, so it quarantines after a few
// cycles and a later probe restores it; the rest always deliver. Outcomes
// are a pure function of (node, attempt), so draws may run in any order.
func churnBackend(n int) *scriptBackend {
	b := newScriptBackend(n)
	b.record = false
	b.deliver = func(node int32, call int) bool {
		return node%4 != 0 || faults.SplitMix64(uint64(node)<<32|uint64(call))%8 == 0
	}
	return b
}

// scriptedOutcomes derives a deterministic outcome tape per node from a
// tiny hash, giving a mix of first-try deliveries, retried deliveries and
// exhausted nodes.
func scriptedOutcomes(b *scriptBackend) {
	for i := range b.tapes {
		h := uint32(i+1) * 2654435761
		tape := make([]bool, 8)
		for k := range tape {
			h ^= h >> 13
			h *= 0x5bd1e995
			tape[k] = h%3 != 0
		}
		b.tapes[i] = tape
		b.snr[i] = 8 + float64((i+1)%11)
	}
}

// scriptedNode is one node's final state in runScripted: the State view
// plus the silence counter and last SNR (as bits) it does not carry.
type scriptedNode struct {
	NodeState
	SilentCycles int32
	LastSNRBits  uint64
}

// runScripted executes cycles cycles on a fresh scheduler at the given
// pool width and returns every report, the final node states and each
// node's per-attempt rate commands.
func runScripted(t *testing.T, workers, cycles int, withRate bool) ([]CycleReport, []scriptedNode, [][]float64) {
	t.Helper()
	b := newScriptBackend(16)
	scriptedOutcomes(b)
	s := newSched(t, b, 1, probationPolicy())
	defer s.Close()
	if withRate {
		rc, err := NewRateController([]float64{125, 250, 500}, 6)
		if err != nil {
			t.Fatal(err)
		}
		s.SetRateController(rc)
	}
	s.SetWorkers(workers)
	reps := make([]CycleReport, cycles)
	for c := range reps {
		reps[c] = runCycles(t, s, 1)
	}
	nodes := make([]scriptedNode, s.cols.Len())
	for i := range nodes {
		nodes[i] = scriptedNode{
			NodeState:    s.cols.State(i),
			SilentCycles: s.cols.SilentCycles[i],
			LastSNRBits:  math.Float64bits(s.cols.Stats.LastSNRdB[i]),
		}
	}
	return reps, nodes, b.rates
}

// TestCycleDeterministicAcrossWorkers pins the determinism contract at the
// MAC layer: identical scripted fleets produce identical reports, node
// state and rate commands at any pool width, with and without rate
// adaptation. Run with -race this also proves the blocks share nothing
// they should not.
func TestCycleDeterministicAcrossWorkers(t *testing.T) {
	for _, withRate := range []bool{false, true} {
		reps1, nodes1, rates1 := runScripted(t, 1, 10, withRate)
		reps8, nodes8, rates8 := runScripted(t, 8, 10, withRate)
		if !reflect.DeepEqual(reps1, reps8) {
			t.Errorf("rate=%v: reports diverge across workers 1 vs 8:\n%+v\n%+v", withRate, reps1, reps8)
		}
		if !reflect.DeepEqual(nodes1, nodes8) {
			t.Errorf("rate=%v: node states diverge across workers 1 vs 8", withRate)
		}
		if !reflect.DeepEqual(rates1, rates8) {
			t.Errorf("rate=%v: rate commands diverge across workers 1 vs 8", withRate)
		}
	}
}

// TestCycleRateSnapshot pins the per-cycle rate snapshot: every attempt of
// a cycle, retries included, runs at the command read when the cycle
// started, and a delivery's step-up shows first in the next cycle.
func TestCycleRateSnapshot(t *testing.T) {
	for _, workers := range []int{1, 4} {
		b := newScriptBackend(3)
		b.tapes[1] = []bool{true}               // delivers at once
		b.tapes[2] = []bool{false, false, true} // delivers on its last retry
		b.snr[1] = 40                           // big SNR: steps the rate up when folded
		s := newSched(t, b, 1, PollPolicy{MaxRetries: 2})
		rc, err := NewRateController([]float64{125, 250, 500}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rc.Smoothing = 1 // react instantly so cycle boundaries are visible
		s.SetRateController(rc)
		s.SetWorkers(workers)

		// Cycle 0 runs at the initial rate throughout, though node 1's
		// 40 dB delivery climbs the controller before node 2's retries
		// would have run in a serial walk. Cycle 1 runs at the top rate.
		first := runCycles(t, s, 1)
		second := runCycles(t, s, 1)
		if first.ChipRate != 125 || second.ChipRate != 500 {
			t.Errorf("workers=%d: cycle commands %v, %v; want 125, 500", workers, first.ChipRate, second.ChipRate)
		}
		want := [][]float64{
			{125, 125, 125, 500, 500, 500}, // node 0 never delivers
			{125, 500},
			{125, 125, 125, 500},
		}
		if !reflect.DeepEqual(b.rates, want) {
			t.Errorf("workers=%d: per-attempt commands\n got %v\nwant %v", workers, b.rates, want)
		}
		s.Close()
	}
}

// TestLowestIndexError pins deterministic error selection: when
// several polls of a cycle fail — by error or by panic — the lowest-index
// failure is reported, no matter how the pool interleaved them, and a
// panicking backend fails the cycle instead of crashing it.
func TestLowestIndexError(t *testing.T) {
	cases := []struct {
		name   string
		fail   func(b *scriptBackend)
		prefix string // of the error's first line
	}{
		{"errors", func(b *scriptBackend) {
			b.errFor[3] = errors.New("flooded")
			b.errFor[5] = errors.New("also flooded")
		}, "mac: poll 3: flooded"},
		{"panic below error", func(b *scriptBackend) {
			b.panicFor[3] = "backend bug"
			b.errFor[5] = errors.New("flooded")
		}, "mac_cycle: index 3: panic: backend bug"},
		{"error below panic", func(b *scriptBackend) {
			b.errFor[3] = errors.New("flooded")
			b.panicFor[5] = "backend bug"
		}, "mac: poll 3: flooded"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			for _, block := range []int{1, 4} {
				b := fixedBackend(true, true, true, true, true, true)
				tc.fail(b)
				s := newSched(t, b, block, DefaultPollPolicy())
				s.SetWorkers(workers)
				_, err := s.RunCycle()
				s.Close()
				if err == nil {
					t.Fatalf("%s, workers=%d block=%d: no error", tc.name, workers, block)
				}
				if head, _, _ := strings.Cut(err.Error(), "\n"); head != tc.prefix {
					t.Errorf("%s, workers=%d block=%d: error %q, want the lowest-index failure %q",
						tc.name, workers, block, head, tc.prefix)
				}
			}
		}
	}
}

// TestCycleCountersMatchSerialWalk re-checks the serial bookkeeping
// invariants on a mixed cycle: counters must be what a serial walk of the
// schedule produces for the same tapes.
func TestCycleCountersMatchSerialWalk(t *testing.T) {
	b := newScriptBackend(4)
	b.tapes[0] = []bool{true}               // 1 poll
	b.tapes[1] = []bool{false, true}        // 2 polls, 1 retry
	b.tapes[2] = []bool{false, false, true} // 3 polls, 2 retries
	b.tapes[3] = []bool{false}              // 3 polls, 2 retries, undelivered
	s := newSched(t, b, 1, PollPolicy{MaxRetries: 2})
	defer s.Close()
	s.SetWorkers(8)
	rep := runCycles(t, s, 1)
	if rep.Polled != 4 || rep.Delivered != 3 || rep.Retries != 5 || rep.Probes != 0 {
		t.Errorf("report %+v, want Polled 4 Delivered 3 Retries 5", rep)
	}
	wantPolls := []int{1, 2, 3, 3}
	for i, want := range wantPolls {
		if st := s.cols.State(i); st.Polls != want {
			t.Errorf("node %d: polls %d, want %d", i, st.Polls, want)
		}
	}
	for i := 0; i < 3; i++ {
		if b.last[i] != wantPolls[i]-1 {
			t.Errorf("node %d delivered on attempt %d, want the final attempt %d", i, b.last[i], wantPolls[i]-1)
		}
	}
}

// TestStaleCalendarEntry: a calendar entry whose node was restored or
// rescheduled since insertion must be skipped by the ProbeDueAt guard when
// its bucket comes up — and must not suppress the node's real probe later.
// The stale entries are planted directly, the skip is observed through
// cycle reports.
func TestStaleCalendarEntry(t *testing.T) {
	s := newSched(t, fixedBackend(true, false), 1, probationPolicy())
	// Cycles 0-2: node 1 fails thrice and quarantines at cycle 2 with its
	// real probe calendared for cycle 4 (base backoff 2).
	runCycles(t, s, 3)
	if !s.cols.Quarantined(1) || s.cols.NextProbeAt(1) != 4 {
		t.Fatalf("setup drifted: quarantined=%v nextProbe=%d, want true/4",
			s.cols.Quarantined(1), s.cols.NextProbeAt(1))
	}
	// Plant two stale entries for cycle 3: one for the quarantined node 1
	// (its real schedule says 4) and one for node 0, which is live.
	s.wheel.schedule(1, 3, 2)
	s.wheel.schedule(0, 3, 2)

	rep := runCycles(t, s, 1) // cycle 3
	if rep.Probes != 0 || rep.Polled != 1 {
		t.Fatalf("cycle 3: polled %d probes %d — stale entries not skipped (want 1 poll, 0 probes)",
			rep.Polled, rep.Probes)
	}
	if rep = runCycles(t, s, 1); rep.Probes != 1 { // cycle 4: the genuine probe
		t.Fatalf("cycle 4: probes %d, want the real calendared probe", rep.Probes)
	}
}

// TestRestoreAndDropSameCycle: one cycle restores a probed node while
// another node leaves the live set — both flavors of leaver (permanent
// drop, probation entry) — exercising the live-list compaction and the
// ascending restore merge together.
func TestRestoreAndDropSameCycle(t *testing.T) {
	// Flavor 1: Probation off — node 2 is dropped in the very cycle node 1
	// is restored.
	s := newSched(t, fixedBackend(true, true, false, true), 1, PollPolicy{MaxRetries: 0, DropAfter: 2})
	quarantineNode(s, 1, 1)
	runCycles(t, s, 1)        // cycle 0: node 2 silent ×1
	rep := runCycles(t, s, 1) // cycle 1: node 1 probe delivers; node 2 drops
	if rep.Restored != 1 || rep.Dropped != 1 {
		t.Fatalf("cycle 1: restored %d dropped %d, want 1 and 1", rep.Restored, rep.Dropped)
	}
	assertLive(t, s, []int32{0, 1, 3})

	// Flavor 2: probation — the leaver enters quarantine instead of
	// dropping, same cycle as the restore.
	s = newSched(t, fixedBackend(true, true, false, true), 1, probationPolicy())
	quarantineNode(s, 1, 2)
	runCycles(t, s, 2)       // cycles 0-1: node 2 silent ×2
	rep = runCycles(t, s, 1) // cycle 2: node 1 restored; node 2 quarantined
	if rep.Restored != 1 || rep.Quarantined != 1 {
		t.Fatalf("cycle 2: restored %d quarantined %d, want 1 and 1", rep.Restored, rep.Quarantined)
	}
	assertLive(t, s, []int32{0, 1, 3})
	// Cycle 3: the merged live list is what gets polled.
	if rep = runCycles(t, s, 1); rep.Polled != 3 || rep.Probes != 0 {
		t.Fatalf("cycle 3: polled %d probes %d, want 3 and 0", rep.Polled, rep.Probes)
	}
}

// quarantineNode force-quarantines a live node with its probe due at
// `due`, as a prior campaign would have left it, allocating the probation
// columns a scheduler without Probation lacks.
func quarantineNode(s *Scheduler, node int32, due int) {
	s.cols.allocProbation()
	s.cols.Flags[node] |= FlagQuarantined
	s.cols.NextProbe[node] = int32(due)
	s.cols.ProbeInterval[node] = 2
	s.nQuar++
	s.wheel.schedule(node, due, -1)
	s.live = slices.DeleteFunc(s.live, func(n int32) bool { return n == node })
}

func assertLive(t *testing.T, s *Scheduler, want []int32) {
	t.Helper()
	if !slices.Equal(s.live, want) {
		t.Fatalf("live %v, want ascending %v", s.live, want)
	}
}

// assertScheduleUnique fails unless the last cycle's schedule — live, the
// live list the cycle started from, and s.due, the due-probe list it
// built — is two strictly ascending, disjoint lists, so no node sits in
// two blocks of the parallel fold.
func assertScheduleUnique(t *testing.T, s *Scheduler, live []int32) {
	t.Helper()
	for name, l := range map[string][]int32{"live": live, "due-probe": s.due} {
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Fatalf("cycle %d: %s list not strictly ascending at %d: node %d after %d",
					s.cycle-1, name, i, l[i], l[i-1])
			}
		}
	}
	for i, j := 0, 0; i < len(live) && j < len(s.due); {
		switch {
		case live[i] == s.due[j]:
			t.Fatalf("cycle %d: node %d is both live and a due probe", s.cycle-1, live[i])
		case live[i] < s.due[j]:
			i++
		default:
			j++
		}
	}
}

// runScheduled runs one cycle and checks the schedule it ran.
func runScheduled(t *testing.T, s *Scheduler) CycleReport {
	t.Helper()
	live := slices.Clone(s.live)
	rep := runCycles(t, s, 1)
	assertScheduleUnique(t, s, live)
	return rep
}

// TestScheduleOneEntryPerNode: a node calendared more than once for the
// same cycle — a duplicate in its bucket, or an overflow entry that
// take() merges with a bucket entry — is probed once. Blocks fold node
// columns concurrently, so a node listed twice could be folded by two
// blocks at once.
func TestScheduleOneEntryPerNode(t *testing.T) {
	for _, workers := range []int{1, 4} {
		b := fixedBackend(true, false, true)
		s := newSched(t, b, 1, probationPolicy())
		s.SetWorkers(workers)
		// Cycles 0-2: node 1 quarantines at cycle 2, its probe due at 4.
		runCycles(t, s, 3)
		if s.cols.NextProbeAt(1) != 4 {
			t.Fatalf("setup drifted: next probe %d, want 4", s.cols.NextProbeAt(1))
		}
		s.wheel.schedule(1, 4, 2)   // stale duplicate in the same bucket
		s.wheel.schedule(1, 4, -20) // beyond the horizon: the overflow list
		runCycles(t, s, 1)          // cycle 3
		rep := runScheduled(t, s)   // cycle 4: bucket + overflow merge
		if rep.Probes != 1 || rep.Polled != 3 {
			t.Fatalf("workers=%d cycle 4: polled %d probes %d, want 3 polls and 1 probe",
				workers, rep.Polled, rep.Probes)
		}
		if st := s.cols.State(1); st.Polls != 3*3+1 {
			t.Fatalf("workers=%d: node 1 polled %d times, want 10 (three full cycles, one probe)",
				workers, st.Polls)
		}
		s.Close()
	}

	// A churning probation campaign across many blocks keeps every
	// schedule unique.
	s := newSched(t, churnBackend(6000), 256, probationPolicy())
	defer s.Close()
	s.SetWorkers(3)
	probes, restored := 0, 0
	for c := 0; c < 24; c++ {
		rep := runScheduled(t, s)
		probes += rep.Probes
		restored += rep.Restored
	}
	if probes == 0 || restored == 0 {
		t.Fatalf("campaign probed %d and restored %d — the check lost its teeth", probes, restored)
	}
}

// TestBlockPanicReturnsError: a panic inside a pool block comes back from
// RunCycle as a *workpool.PanicError carrying the node index, at any
// worker count. The fault is injected by planting node indices past the
// fleet's end in the live list, so the backend's draw indexes out of
// range.
func TestBlockPanicReturnsError(t *testing.T) {
	const nodes = 10_000
	for _, warm := range []int{0, 3} {
		for _, workers := range []int{1, 4} {
			s := newSched(t, churnBackend(nodes), 1024, DefaultPollPolicy())
			s.SetWorkers(workers)
			runCycles(t, s, warm)
			s.live = append(s.live, nodes+3, nodes+7)
			_, err := s.RunCycle()
			var pe *workpool.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("warm=%d workers=%d: error %v, want a *workpool.PanicError", warm, workers, err)
			}
			if pe.Index != nodes+3 || pe.Stage != poolStage {
				t.Fatalf("warm=%d workers=%d: panic at %s index %d, want %s index %d",
					warm, workers, pe.Stage, pe.Index, poolStage, nodes+3)
			}
			if _, ok := pe.Value.(runtime.Error); !ok {
				t.Fatalf("warm=%d workers=%d: panic value %v, want the runtime error", warm, workers, pe.Value)
			}
			s.Close()
		}
	}
}

// TestFailedCycleResyncs: a failed cycle leaves the scheduler consistent,
// so a caller that logs the error and keeps polling gets unique schedules
// and loses no probe. Cycle 0 quarantines node 0 in the block before the
// failing poll of node 2 and, when the pool ran blocks past the failure,
// node 5 in a block the in-order fold never reached; cycle 2's BeginCycle
// fails after the due probes left the wheel. Both nodes must still be
// probed, at cycle 3.
func TestFailedCycleResyncs(t *testing.T) {
	// consistent checks the live list and the report's counts against the
	// columns.
	consistent := func(t *testing.T, s *Scheduler, rep CycleReport) {
		t.Helper()
		var live []int32
		quar := 0
		for i := range s.cols.Len() {
			if s.cols.Live(i) {
				live = append(live, int32(i))
			} else if s.cols.Quarantined(i) {
				quar++
			}
		}
		assertLive(t, s, live)
		if rep.Live != len(live) || rep.Quarantined != quar || rep.Dropped != 0 {
			t.Fatalf("cycle %d: report live %d quarantined %d dropped %d, columns say %d, %d and 0",
				rep.Cycle, rep.Live, rep.Quarantined, rep.Dropped, len(live), quar)
		}
	}
	for _, workers := range []int{1, 4} {
		b := fixedBackend(false, true, true, true, true, false, true, true, true, true, true, true)
		s := newSched(t, b, 1, PollPolicy{DropAfter: 1, Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8})
		s.SetWorkers(workers)
		reg := telemetry.NewRegistry()
		s.Instrument(reg)
		lost := func(wantCycles, wantPolls int64) {
			t.Helper()
			cycles := reg.Counter("vab_mac_failed_cycles_total", "").Value()
			polls := reg.Counter("vab_mac_failed_cycle_polls_total", "").Value()
			if cycles != wantCycles || polls != wantPolls {
				t.Errorf("workers=%d: failed cycles %d with %d polls, want %d with %d",
					workers, cycles, polls, wantCycles, wantPolls)
			}
		}
		b.errFor[2] = errors.New("flooded")
		failed, err := s.RunCycle()
		if err == nil {
			t.Fatalf("workers=%d: cycle 0 did not fail", workers)
		}
		if failed.Polled != 12 {
			t.Fatalf("workers=%d: cycle 0 scheduled %d polls, want 12", workers, failed.Polled)
		}
		lost(1, 12)
		delete(b.errFor, 2)
		consistent(t, s, CycleReport{Live: len(s.live), Quarantined: s.nQuar, Dropped: s.nDrop})
		consistent(t, s, runScheduled(t, s)) // cycle 1: node 5 quarantines if cycle 0 never reached it

		b.beginErr = errors.New("no model")
		failed2, err := s.RunCycle() // cycle 2: node 0's probe is due
		if err == nil {
			t.Fatalf("workers=%d: cycle 2 did not fail", workers)
		}
		b.beginErr = nil
		lost(2, int64(12+failed2.Polled))
		calls := slices.Clone(b.calls)
		rep := runScheduled(t, s) // cycle 3
		consistent(t, s, rep)
		if rep.Probes != 2 || rep.Polled != 12 {
			t.Errorf("workers=%d cycle 3: polled %d probes %d, want 12 and 2", workers, rep.Polled, rep.Probes)
		}
		for _, n := range []int{0, 5} {
			if b.calls[n] != calls[n]+1 {
				t.Errorf("workers=%d cycle 3: quarantined node %d drew %d attempts, want its probe",
					workers, n, b.calls[n]-calls[n])
			}
		}
		for range 12 {
			consistent(t, s, runScheduled(t, s))
		}
		lost(2, int64(12+failed2.Polled)) // clean cycles add nothing
		s.Close()
	}
}

// TestRecordStorageBounded: block records live in a ring that blocks
// reuse, so the delivered-SNR storage a cycle keeps is bounded by ring
// size × block length — the same at 20k and at 200k nodes — rather than
// growing with the number of deliveries. At 200k nodes the ring wraps
// within a cycle, and a steady-state pooled cycle still allocates no more
// than two words of runtime noise.
func TestRecordStorageBounded(t *testing.T) {
	const workers, block = 4, 16384
	snrCap := func(nodes int) int {
		s := newSched(t, churnBackend(nodes), block, probationPolicy())
		defer s.Close()
		s.SetWorkers(workers)
		delivered := 0
		for c := 0; c < 10; c++ {
			delivered += runCycles(t, s, 1).Delivered
		}
		if delivered <= nodes {
			t.Fatalf("%d nodes delivered only %d polls over 10 cycles: the check lost its teeth", nodes, delivered)
		}
		if nodes > len(s.ring)*block {
			runCycles(t, s, 30) // warm the calendar and record storage
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := s.RunCycle(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("%d nodes: pooled steady-state cycle allocates %.1f/op, want ≤ 2", nodes, allocs)
			}
		}
		total := 0
		for i := range s.ring {
			total += cap(s.ring[i].snrs)
		}
		if bound := len(s.ring) * block; total > bound {
			t.Fatalf("%d nodes: SNR capacity %d exceeds ring %d × block %d", nodes, total, len(s.ring), block)
		}
		return total
	}
	if small, large := snrCap(20_000), snrCap(200_000); small != large {
		t.Fatalf("SNR capacity grows with the fleet: %d at 20k nodes, %d at 200k", small, large)
	}
}

// TestProbeBeyondWheelHorizon drives the overflow path end-to-end: a
// policy whose re-probe backoff (1500 cycles, cap 2048) exceeds the
// wheel's 1024-bucket ceiling quarantines a dead node, and the re-probe
// fires exactly 1500 cycles later via the overflow list — no probe
// sooner, none lost.
func TestProbeBeyondWheelHorizon(t *testing.T) {
	policy := PollPolicy{
		MaxRetries: 0, DropAfter: 2,
		Probation: true, ProbeBackoffBase: 1500, ProbeBackoffMax: 2048,
	}
	s := newSched(t, fixedBackend(true, false), 1, policy)
	if s.wheel.mask >= policy.ProbeHorizon() {
		t.Fatalf("wheel span %d covers horizon %d — test no longer exercises overflow", s.wheel.mask, policy.ProbeHorizon())
	}
	// Node 1 fails cycles 0 and 1, quarantines at cycle 1, probe due at
	// 1+1500.
	const quarantineCycle = 1
	probeCycle := quarantineCycle + 1500
	for c := 0; c <= probeCycle; c++ {
		rep := runCycles(t, s, 1)
		wantProbes := 0
		if c == probeCycle {
			wantProbes = 1
		}
		if rep.Probes != wantProbes {
			t.Fatalf("cycle %d: probes %d, want %d", c, rep.Probes, wantProbes)
		}
		if c > quarantineCycle && c < probeCycle && rep.Polled != 1 {
			t.Fatalf("cycle %d: polled %d while node 1 awaits its far probe, want 1", c, rep.Polled)
		}
	}
	// The failed probe doubles the interval to 2048 (in-wheel would alias;
	// overflow holds it) — still pending, nothing lost.
	if got := s.wheel.pending(); got != 1 {
		t.Fatalf("pending after failed far probe = %d, want 1", got)
	}
	if next := s.cols.NextProbeAt(1); next != probeCycle+2048 {
		t.Fatalf("next probe at %d, want %d", next, probeCycle+2048)
	}
}

// TestCycleTelemetry checks the vab_mac_* instruments a cycle flushes:
// attempt, delivery, retry and timeout counts, probation entries and
// exits, the live-node gauge, and the recovery latency the in-order fold
// observes for a restored node.
func TestCycleTelemetry(t *testing.T) {
	b := newScriptBackend(3)
	b.tapes[0] = []bool{true}
	b.tapes[1] = []bool{false, true}        // one retry, then delivers every cycle
	b.tapes[2] = []bool{false, false, true} // quarantined at cycle 0, restored by the cycle-2 probe
	s := newSched(t, b, 1, PollPolicy{MaxRetries: 1, DropAfter: 1, Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 4})
	defer s.Close()
	s.SetWorkers(2)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	snapshot := func() map[string]float64 {
		got := map[string]float64{}
		for _, snap := range reg.Snapshot() {
			got[snap.Name] = snap.Value
		}
		return got
	}
	check := func(when string, want map[string]float64) {
		t.Helper()
		got := snapshot()
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s: %s = %g, want %g", when, name, got[name], v)
			}
		}
	}
	runCycles(t, s, 1)
	check("cycle 0", map[string]float64{
		"vab_mac_polls_total":              5,
		"vab_mac_deliveries_total":         2,
		"vab_mac_retries_total":            2,
		"vab_mac_timeouts_total":           3,
		"vab_mac_quarantine_entries_total": 1,
		"vab_mac_live_nodes":               2,
	})
	runCycles(t, s, 2)
	check("cycle 2", map[string]float64{
		"vab_mac_polls_total":              10,
		"vab_mac_deliveries_total":         7,
		"vab_mac_retries_total":            2,
		"vab_mac_timeouts_total":           3,
		"vab_mac_probes_total":             1,
		"vab_mac_quarantine_entries_total": 1,
		"vab_mac_quarantine_exits_total":   1,
		"vab_mac_nodes_dropped_total":      0,
		"vab_mac_live_nodes":               3,
	})
	var lat telemetry.Snapshot
	for _, snap := range reg.Snapshot() {
		if snap.Name == "vab_mac_recovery_cycles" {
			lat = snap
		}
	}
	if lat.Count != 1 || lat.Sum != 3 {
		t.Errorf("recovery latency: %d observations summing to %g, want one of 3 cycles", lat.Count, lat.Sum)
	}
}

// TestRestoreMergeInPlace: merging restored nodes into the live list in
// place, with the list filled to its full capacity, equals the copying
// merge, whether the restored nodes sort before, between or after the live
// entries.
func TestRestoreMergeInPlace(t *testing.T) {
	cases := []struct{ live, restored []int32 }{
		{[]int32{5, 6, 7}, []int32{0, 1, 2}},            // before
		{[]int32{0, 3, 6}, []int32{1, 2, 4, 5}},         // between
		{[]int32{0, 1, 2}, []int32{3, 4, 9}},            // after
		{[]int32{2, 5, 9}, []int32{0, 3, 4, 7, 10, 11}}, // all three
		{nil, []int32{1, 4}},                            // the live list had emptied
		{[]int32{4}, []int32{8}},
	}
	rng := faults.SplitMix64(17)
	for k := 0; k < 200; k++ { // random disjoint splits of 0…n-1
		var c struct{ live, restored []int32 }
		for n := int32(0); n < 40; n++ {
			rng = faults.SplitMix64(rng)
			if rng%3 == 0 {
				c.restored = append(c.restored, n)
			} else {
				c.live = append(c.live, n)
			}
		}
		cases = append(cases, c)
	}
	for _, c := range cases {
		n := len(c.live) + len(c.restored)
		live := make([]int32, len(c.live), n)
		copy(live, c.live)
		want := mergeSortedInto(nil, c.live, c.restored)
		if got := mergeRestored(live, c.restored); !slices.Equal(got, want) || cap(got) != n {
			t.Fatalf("live %v restored %v: in place %v, want %v", c.live, c.restored, got, want)
		}
	}
}
