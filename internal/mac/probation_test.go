package mac

import "testing"

// TestProbationQuarantineAndRestore walks the full probation arc: DropAfter
// silent cycles quarantine the node instead of removing it, re-probes run
// single-attempt at exponentially backed-off intervals, and a successful
// probe restores the node to the regular schedule.
func TestProbationQuarantineAndRestore(t *testing.T) {
	s, b := newScripted(t, 1, PollPolicy{
		MaxRetries: 0, DropAfter: 3,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
	})
	// Cycles 0-2 fail (→ quarantine), probe at cycle 4 fails (→ backoff
	// doubles), probe at cycle 8 succeeds (→ restore).
	b.tapes[0] = []bool{false, false, false, false, true}

	runCycles(t, s, 3)
	st := s.cols.State(0)
	if !st.Quarantined || st.Dropped {
		t.Fatalf("after %d silent cycles: quarantined=%v dropped=%v", 3, st.Quarantined, st.Dropped)
	}
	if st.QuarantineEntries != 1 {
		t.Fatalf("QuarantineEntries = %d, want 1", st.QuarantineEntries)
	}

	// Cycle 3: backoff not yet elapsed — no airtime spent at all.
	rep, _ := s.RunCycle()
	if rep.Polled != 0 || rep.Probes != 0 {
		t.Fatalf("cycle 3 touched the quarantined node: %+v", rep)
	}

	// Cycle 4: first probe, scripted to fail → interval doubles to 4.
	rep, _ = s.RunCycle()
	if rep.Probes != 1 || rep.Delivered != 0 {
		t.Fatalf("cycle 4 report %+v, want one failed probe", rep)
	}
	if !s.cols.Quarantined(0) {
		t.Fatal("failed probe released the node")
	}

	// Cycles 5-7: inside the doubled backoff — silent.
	for i := 5; i < 8; i++ {
		if rep, _ = s.RunCycle(); rep.Probes != 0 {
			t.Fatalf("cycle %d probed during backoff", i)
		}
	}

	// Cycle 8: probe succeeds → node restored and delivering.
	rep, _ = s.RunCycle()
	if rep.Probes != 1 || rep.Delivered != 1 || rep.Restored != 1 {
		t.Fatalf("cycle 8 report %+v, want a restoring probe", rep)
	}
	st = s.cols.State(0)
	if st.Quarantined || st.Dropped || s.cols.SilentCycles[0] != 0 {
		t.Fatalf("restored state %+v, silent %d", st, s.cols.SilentCycles[0])
	}
	if b.last[0] != 4 {
		t.Fatal("restoring probe's delivery not the one folded")
	}

	// Back on the regular schedule.
	rep, _ = s.RunCycle()
	if rep.Polled != 1 || rep.Delivered != 1 || rep.Probes != 0 {
		t.Fatalf("post-restore cycle %+v", rep)
	}

	// Airtime audit: 3 scheduled polls + 2 probes + 1 post-restore poll.
	if b.calls[0] != 6 {
		t.Fatalf("backend drew %d polls, want 6", b.calls[0])
	}
}

// TestProbationBackoffCap verifies the re-probe interval doubles and then
// saturates at ProbeBackoffMax, never going unbounded and never busy-polling.
func TestProbationBackoffCap(t *testing.T) {
	s, _ := newScripted(t, 1, PollPolicy{ // no tape: permanently dead
		MaxRetries: 0, DropAfter: 1,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 4,
	})

	// Cycle 0 quarantines (interval 2, next probe at 2). Then probes land
	// at 2 (→ interval 4), 6 (→ capped at 4), 10, 14, ...
	want := map[int]bool{2: true, 6: true, 10: true, 14: true}
	for cycle := 0; cycle < 16; cycle++ {
		rep, err := s.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		probed := rep.Probes == 1
		if cycle > 0 && probed != want[cycle] {
			t.Fatalf("cycle %d: probed=%v, want %v", cycle, probed, want[cycle])
		}
	}
	if st := s.cols.State(0); !st.Quarantined || st.Dropped {
		t.Fatalf("dead node state %+v, want still quarantined", st)
	}
}

// Without probation, the same silent streak removes the node for good —
// the legacy one-way behavior the probation flag exists to replace.
func TestProbationOffStillDrops(t *testing.T) {
	s, b := newScripted(t, 1, PollPolicy{MaxRetries: 0, DropAfter: 3})
	b.tapes[0] = []bool{false, false, false, true} // recovers too late
	runCycles(t, s, 10)
	st := s.cols.State(0)
	if !st.Dropped || st.Quarantined {
		t.Fatalf("state %+v, want permanently dropped", st)
	}
	if b.calls[0] != 3 {
		t.Fatalf("dropped node polled %d times, want 3", b.calls[0])
	}
}

func TestPollPolicyValidateProbation(t *testing.T) {
	bad := []PollPolicy{
		{ProbeBackoffBase: -1},
		{ProbeBackoffMax: -2},
		{ProbeBackoffBase: 8, ProbeBackoffMax: 4},
		// A base past the default cap (16) would calendar the first
		// re-probe beyond ProbeHorizon, and the backoff would then fall.
		{DropAfter: 1, Probation: true, ProbeBackoffBase: 20},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: policy %+v accepted", i, p)
		}
	}
	good := PollPolicy{Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("valid probation policy rejected: %v", err)
	}
}
