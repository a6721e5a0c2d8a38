package linksim

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/workpool"
)

// TestFleetStaleCalendarEntry: a calendar entry whose node was restored or
// rescheduled since insertion must be skipped by the ProbeDueAt guard when
// its bucket comes up — and must not suppress the node's real probe later.
// The stale entries are planted directly (the package owns the wheel), the
// skip is observed through cycle reports.
func TestFleetStaleCalendarEntry(t *testing.T) {
	fleet, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 50}, {RangeM: 200}},
		Policy:     probationPolicy(),
		Table:      hardTable(),
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cycles 0-2: node 1 fails thrice and quarantines at cycle 2 with its
	// real probe calendared for cycle 4 (base backoff 2).
	for c := 0; c < 3; c++ {
		if _, err := fleet.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if !fleet.cols.Quarantined(1) || fleet.cols.NextProbeAt(1) != 4 {
		t.Fatalf("setup drifted: quarantined=%v nextProbe=%d, want true/4",
			fleet.cols.Quarantined(1), fleet.cols.NextProbeAt(1))
	}
	// Plant two stale entries for cycle 3: one for the quarantined node 1
	// (its real schedule says 4) and one for node 0, which is live.
	fleet.wheel.schedule(1, 3, 2)
	fleet.wheel.schedule(0, 3, 2)

	rep, err := fleet.RunCycle() // cycle 3
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 0 || rep.Polled != 1 {
		t.Fatalf("cycle 3: polled %d probes %d — stale entries not skipped (want 1 poll, 0 probes)",
			rep.Polled, rep.Probes)
	}
	rep, err = fleet.RunCycle() // cycle 4: the genuine probe
	if err != nil {
		t.Fatal(err)
	}
	if rep.Probes != 1 {
		t.Fatalf("cycle 4: probes %d, want the real calendared probe", rep.Probes)
	}
}

// TestFleetRestoreAndDropSameCycle: one cycle restores a probed node while
// another node leaves the live set — both flavors of leaver (permanent
// drop, probation entry) — exercising the live-list compaction and the
// ascending restore merge together.
func TestFleetRestoreAndDropSameCycle(t *testing.T) {
	// Flavor 1: Probation off — node 2 is dropped in the very cycle node 1
	// is restored.
	fleet, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 50}, {RangeM: 50}, {RangeM: 200}, {RangeM: 50}},
		Policy:     mac.PollPolicy{MaxRetries: 0, DropAfter: 2},
		Table:      hardTable(),
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	quarantineNode(fleet, 1, 1)

	if _, err := fleet.RunCycle(); err != nil { // cycle 0: node 2 silent ×1
		t.Fatal(err)
	}
	rep, err := fleet.RunCycle() // cycle 1: node 1 probe delivers; node 2 drops
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || rep.Dropped != 1 {
		t.Fatalf("cycle 1: restored %d dropped %d, want 1 and 1", rep.Restored, rep.Dropped)
	}
	assertLive(t, fleet, []int32{0, 1, 3})

	// Flavor 2: probation — the leaver enters quarantine instead of
	// dropping, same cycle as the restore.
	fleet2, err := NewFleet(Config{
		Placements: []Placement{{RangeM: 50}, {RangeM: 50}, {RangeM: 200}, {RangeM: 50}},
		Policy:     probationPolicy(),
		Table:      hardTable(),
		Seed:       23,
	})
	if err != nil {
		t.Fatal(err)
	}
	quarantineNode(fleet2, 1, 2)
	for c := 0; c < 2; c++ { // cycles 0-1: node 2 silent ×2
		if _, err := fleet2.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = fleet2.RunCycle() // cycle 2: node 1 restored; node 2 quarantined
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 1 || rep.Quarantined != 1 {
		t.Fatalf("cycle 2: restored %d quarantined %d, want 1 and 1", rep.Restored, rep.Quarantined)
	}
	assertLive(t, fleet2, []int32{0, 1, 3})
	rep, err = fleet2.RunCycle() // cycle 3: the merged live list is what gets polled
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polled != 3 || rep.Probes != 0 {
		t.Fatalf("cycle 3: polled %d probes %d, want 3 and 0", rep.Polled, rep.Probes)
	}
}

// quarantineNode force-quarantines a live node with its probe due at
// `due`, as a prior campaign would have left it.
func quarantineNode(f *Fleet, node int32, due int) {
	f.cols.Flags[node] |= mac.FlagQuarantined
	f.cols.NextProbe[node] = int32(due)
	f.cols.ProbeInterval[node] = 2
	f.nQuar++
	f.wheel.schedule(node, due, -1)
	kept := f.live[:0]
	for _, n := range f.live {
		if n != node {
			kept = append(kept, n)
		}
	}
	f.live = kept
}

func assertLive(t *testing.T, f *Fleet, want []int32) {
	t.Helper()
	if len(f.live) != len(want) {
		t.Fatalf("live %v, want %v", f.live, want)
	}
	for i := range want {
		if f.live[i] != want[i] {
			t.Fatalf("live %v, want ascending %v", f.live, want)
		}
	}
}

// TestFleetCycleAllocs pins the tentpole's zero-allocation contract: once
// the scratch buffers, cell cache and worker pool are warm, a serial cycle
// allocates nothing, and a pooled parallel cycle stays within a few words
// of runtime noise. Probation churn is active (the default table leaves
// far nodes lossy), so the pin covers the wheel and restore paths too.
func TestFleetCycleAllocs(t *testing.T) {
	run := func(workers int) float64 {
		fleet, err := NewFleet(Config{
			Nodes:  4096,
			Policy: probationPolicy(),
			Seed:   21,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		fleet.SetWorkers(workers)
		for c := 0; c < 40; c++ {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs := run(1); allocs != 0 {
		t.Fatalf("serial steady-state cycle allocates %.1f/op, want 0", allocs)
	}
	if allocs := run(4); allocs > 2 {
		t.Fatalf("pooled steady-state cycle allocates %.1f/op, want ≤ 2", allocs)
	}
}

// assertScheduleUnique fails unless the last cycle's schedule — live, the
// live list the cycle started from, and f.due, the due-probe list it
// built — is two strictly ascending, disjoint lists, so no node sits in
// two blocks of the parallel fold.
func assertScheduleUnique(t *testing.T, f *Fleet, live []int32) {
	t.Helper()
	for name, l := range map[string][]int32{"live": live, "due-probe": f.due} {
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] {
				t.Fatalf("cycle %d: %s list not strictly ascending at %d: node %d after %d",
					f.cycle-1, name, i, l[i], l[i-1])
			}
		}
	}
	for i, j := 0, 0; i < len(live) && j < len(f.due); {
		switch {
		case live[i] == f.due[j]:
			t.Fatalf("cycle %d: node %d is both live and a due probe", f.cycle-1, live[i])
		case live[i] < f.due[j]:
			i++
		default:
			j++
		}
	}
}

// runScheduled runs one cycle and checks the schedule it ran.
func runScheduled(t *testing.T, f *Fleet) CycleReport {
	t.Helper()
	live := slices.Clone(f.live)
	rep, err := f.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	assertScheduleUnique(t, f, live)
	return rep
}

// TestFleetWorkListOneEntryPerNode: a node calendared more than once for
// the same cycle — a duplicate in its bucket, or an overflow entry that
// take() merges with a bucket entry — is probed once. Blocks fold node
// columns concurrently, so a node listed twice could be folded by two
// blocks at once.
func TestFleetWorkListOneEntryPerNode(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fleet, err := NewFleet(Config{
			Placements: []Placement{{RangeM: 50}, {RangeM: 200}, {RangeM: 50}},
			Policy:     probationPolicy(),
			Table:      hardTable(),
			Seed:       13,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet.SetWorkers(workers)
		// Cycles 0-2: node 1 quarantines at cycle 2, its probe due at 4.
		for c := 0; c < 3; c++ {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
		}
		if fleet.cols.NextProbeAt(1) != 4 {
			t.Fatalf("setup drifted: next probe %d, want 4", fleet.cols.NextProbeAt(1))
		}
		fleet.wheel.schedule(1, 4, 2)               // stale duplicate in the same bucket
		fleet.wheel.schedule(1, 4, -20)             // beyond the horizon: the overflow list
		if _, err := fleet.RunCycle(); err != nil { // cycle 3
			t.Fatal(err)
		}
		rep := runScheduled(t, fleet) // cycle 4: bucket + overflow merge
		if rep.Probes != 1 || rep.Polled != 3 {
			t.Fatalf("workers=%d cycle 4: polled %d probes %d, want 3 polls and 1 probe",
				workers, rep.Polled, rep.Probes)
		}
		if st := fleet.NodeState(1); st.Polls != 3*3+1 {
			t.Fatalf("workers=%d: node 1 polled %d times, want 10 (three full cycles, one probe)",
				workers, st.Polls)
		}
		fleet.Close()
	}

	// A probation campaign under chaos keeps every schedule unique.
	fleet, err := NewFleet(Config{Nodes: 6000, Policy: probationPolicy(), Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	sc, err := faults.Parse("chaos", 31)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := faults.NewEngine(sc)
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetFaultEngine(eng)
	fleet.SetWorkers(3)
	probes := 0
	for c := 0; c < 24; c++ {
		probes += runScheduled(t, fleet).Probes
	}
	if probes == 0 {
		t.Fatal("campaign never probed — the check lost its teeth")
	}
}

// TestFleetBlockPanicReturnsError: a panic inside a pool block comes back
// from RunCycle as a *workpool.PanicError carrying the node index, at any
// worker count, on the table-walk and the cached draw paths. The fault is
// injected by planting node indices past the fleet's end in the live list.
func TestFleetBlockPanicReturnsError(t *testing.T) {
	const nodes = 10_000
	for _, warm := range []int{0, 3} { // cycle 0 walks the table; cycle 3 hits the cache
		for _, workers := range []int{1, 4} {
			fleet, err := NewFleet(Config{Nodes: nodes, Policy: mac.DefaultPollPolicy(), Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			fleet.SetWorkers(workers)
			for c := 0; c < warm; c++ {
				if _, err := fleet.RunCycle(); err != nil {
					t.Fatal(err)
				}
			}
			fleet.live = append(fleet.live, nodes+3, nodes+7)
			_, err = fleet.RunCycle()
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
			fleet.Close()
		}
	}
}

// TestFleetRecordStorageBounded: block records live in a ring that blocks
// reuse, so the delivered-pair storage a cycle keeps is bounded by ring
// size × pollBlock — the same at 20k and at 200k nodes — rather than
// growing with the number of deliveries. At 200k nodes the ring wraps
// within a cycle, and a steady-state pooled cycle still allocates no more
// than TestFleetCycleAllocs allows.
func TestFleetRecordStorageBounded(t *testing.T) {
	const workers = 4
	pairCap := func(nodes int) int {
		fleet, err := NewFleet(Config{Nodes: nodes, Policy: probationPolicy(), Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		fleet.SetWorkers(workers)
		delivered := 0
		for c := 0; c < 10; c++ {
			rep, err := fleet.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			delivered += rep.Delivered
		}
		if delivered <= nodes {
			t.Fatalf("%d nodes delivered only %d polls over 10 cycles: the check lost its teeth", nodes, delivered)
		}
		if nodes > len(fleet.ring)*pollBlock {
			for c := 10; c < 40; c++ { // warm the calendar and record storage
				if _, err := fleet.RunCycle(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := fleet.RunCycle(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("%d nodes: pooled steady-state cycle allocates %.1f/op, want ≤ 2", nodes, allocs)
			}
		}
		total := 0
		for i := range fleet.ring {
			total += cap(fleet.ring[i].pairs)
		}
		if bound := len(fleet.ring) * pollBlock; total > bound {
			t.Fatalf("%d nodes: pair capacity %d exceeds ring %d × block %d", nodes, total, len(fleet.ring), pollBlock)
		}
		return total
	}
	if small, large := pairCap(20_000), pairCap(200_000); small != large {
		t.Fatalf("pair capacity grows with the fleet: %d at 20k nodes, %d at 200k", small, large)
	}
}
