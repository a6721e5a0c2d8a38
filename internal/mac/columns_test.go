package mac

import "testing"

// TestFoldPrimitivesMatchScheduler drives a Scheduler through a
// quarantine/restore trajectory and replays the same outcome sequence
// through the exported column fold directly; the two node-state evolutions
// must agree field for field, probe schedule included: the scheduler's
// fold IS the column fold, whichever backend drew the outcomes.
func TestFoldPrimitivesMatchScheduler(t *testing.T) {
	policy := PollPolicy{
		MaxRetries: 0, DropAfter: 2,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
	}
	// The node delivers twice, goes silent for 4 polls (2 cycles → quarantine,
	// then probes fail twice), then answers its next probe and stays up.
	script := []bool{true, true, false, false, false, false, true, true, true, true}
	sched, b := newScripted(t, 1, policy)
	b.tapes[0] = script

	// Shadow state evolved through the column fold only.
	shadow := NewNodeColumns(1)
	si := 0 // script cursor for the shadow run

	const cycles = 20
	for c := 0; c < cycles; c++ {
		if _, err := sched.RunCycle(); err != nil {
			t.Fatal(err)
		}

		// Shadow decision phase: same schedule the Scheduler computes.
		if shadow.Live(0) || shadow.ProbeDueAt(0, c) {
			probe := !shadow.Live(0)
			shadow.Polls[0]++
			ok := script[min(si, len(script)-1)]
			si++
			switch {
			case ok:
				shadow.FoldDeliveredAt(0, 12)
				if probe {
					shadow.RestoreAt(0, c)
				}
			case probe:
				policy.FoldProbeFailureAt(shadow, 0, c)
			default:
				policy.FoldPollFailureAt(shadow, 0, c)
			}
		}

		if got, want := sched.cols.State(0), shadow.State(0); got != want {
			t.Fatalf("cycle %d: scheduler state %+v != column-fold state %+v", c, got, want)
		}
		if got, want := sched.cols.NextProbeAt(0), shadow.NextProbeAt(0); got != want {
			t.Fatalf("cycle %d: scheduler next probe %d != column-fold %d", c, got, want)
		}
	}
	if st := shadow.State(0); st.QuarantineEntries != 1 || st.Quarantined {
		t.Fatalf("trajectory did not exercise quarantine+restore: %+v", st)
	}
}

// TestFoldPollFailureTransitions pins the liveness transitions and the
// probe backoff: base interval on entry, doubling per failed probe up to
// the cap, and the recovery latency a restore reports.
func TestFoldPollFailureTransitions(t *testing.T) {
	p := PollPolicy{MaxRetries: 0, DropAfter: 2, Probation: true, ProbeBackoffMax: 8}
	c := NewNodeColumns(2)
	if ch := p.FoldPollFailureAt(c, 0, 0); ch != LivenessNone {
		t.Fatalf("first silent cycle: got %v, want LivenessNone", ch)
	}
	if ch := p.FoldPollFailureAt(c, 0, 1); ch != LivenessQuarantined || !c.Quarantined(0) {
		t.Fatalf("second silent cycle: got %v, want LivenessQuarantined", ch)
	}
	if next := c.NextProbeAt(0); next != 3 || c.ProbeDueAt(0, 2) || !c.ProbeDueAt(0, 3) {
		t.Fatalf("probe scheduled at %d, want due at 3 (base 2) and not before", next)
	}
	for _, step := range []struct{ cycle, next int }{{3, 7}, {7, 15}, {15, 23}} { // 4, 8, then capped at 8
		if !c.ProbeDueAt(0, step.cycle) {
			t.Fatalf("probe not due at cycle %d", step.cycle)
		}
		p.FoldProbeFailureAt(c, 0, step.cycle)
		if next := c.NextProbeAt(0); next != step.next {
			t.Fatalf("failed probe at %d: next probe %d, want %d", step.cycle, next, step.next)
		}
	}
	c.FoldDeliveredAt(0, 12)
	if lat := c.RestoreAt(0, 23); lat != 23 || !c.Live(0) {
		t.Fatalf("restore at 23: latency %d live=%v, want 23 true", lat, c.Live(0))
	}
	if st := c.State(0); st.SilentCycles != 0 || st.QuarantineEntries != 1 || st.Successes != 1 {
		t.Fatalf("restored state %+v", st)
	}

	drop := PollPolicy{MaxRetries: 0, DropAfter: 1}
	if ch := drop.FoldPollFailureAt(c, 1, 0); ch != LivenessDropped || c.Flags[1]&FlagDropped == 0 || c.Live(1) {
		t.Fatalf("drop policy: got %v dropped=%v", ch, c.Flags[1]&FlagDropped != 0)
	}
}

// TestNodeColumnsInit pins the freshly-added initial state and the
// probe-horizon export the calendar wheel sizes itself with.
func TestNodeColumnsInit(t *testing.T) {
	c := NewNodeColumns(3)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := 0; i < 3; i++ {
		if !c.Live(i) {
			t.Fatalf("node %d not live at init", i)
		}
		want := NodeState{Health: 1}
		if got := c.State(i); got != want {
			t.Fatalf("node %d init state %+v, want %+v", i, got, want)
		}
	}
	if h := (PollPolicy{}).ProbeHorizon(); h != 16 {
		t.Fatalf("default probe horizon %d, want 16", h)
	}
	if h := (PollPolicy{ProbeBackoffMax: 8}).ProbeHorizon(); h != 8 {
		t.Fatalf("probe horizon %d, want 8", h)
	}
}
