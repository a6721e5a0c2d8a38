package mac

import (
	"errors"
	"testing"
)

// scriptBackend replays scripted outcomes: tapes[i][k] is the result of
// node i's k-th attempt (the last entry repeats; a node without a tape
// never delivers), or deliver decides when set. Draws for distinct nodes
// may run concurrently: every per-node slice entry is written only by the
// draw of its node.
type scriptBackend struct {
	tapes    [][]bool
	deliver  func(node int32, call int) bool
	snr      []float64 // per node reported SNR (0 → 12 dB)
	calls    []int     // attempts drawn per node
	last     []int     // per node: the attempt (call index) that last delivered, -1 if none
	rates    [][]float64
	record   bool // append each attempt's rate command to rates
	errFor   map[int32]error
	panicFor map[int32]any
	rate     float64 // the cycle's command, from BeginCycle
	begun    int     // BeginCycle calls
	beginErr error   // BeginCycle's result
}

func newScriptBackend(n int) *scriptBackend {
	b := &scriptBackend{
		tapes:    make([][]bool, n),
		snr:      make([]float64, n),
		calls:    make([]int, n),
		last:     make([]int, n),
		rates:    make([][]float64, n),
		record:   true,
		errFor:   map[int32]error{},
		panicFor: map[int32]any{},
	}
	for i := range b.last {
		b.last[i] = -1
	}
	return b
}

func (b *scriptBackend) BeginCycle(_ int, chipRate float64, _ Schedule) error {
	b.rate = chipRate
	b.begun++
	return b.beginErr
}

func (b *scriptBackend) Draw(c *Chunk) error {
	for _, p := range c.Polls {
		if err := b.errFor[p.Node]; err != nil {
			return err
		}
		if v := b.panicFor[p.Node]; v != nil {
			panic(v)
		}
		var o Outcome
		for o.Attempts < p.Attempts && !o.Delivered {
			call := b.calls[p.Node]
			b.calls[p.Node]++
			if b.record {
				b.rates[p.Node] = append(b.rates[p.Node], b.rate)
			}
			o.Attempts++
			if b.delivers(p.Node, call) {
				o.Delivered, o.SNRdB = true, b.snrOf(p.Node)
				b.last[p.Node] = call
			}
		}
		c.Fold(&o)
	}
	return nil
}

func (b *scriptBackend) delivers(node int32, call int) bool {
	if b.deliver != nil {
		return b.deliver(node, call)
	}
	tape := b.tapes[node]
	if len(tape) == 0 {
		return false
	}
	return tape[min(call, len(tape)-1)]
}

func (b *scriptBackend) snrOf(node int32) float64 {
	if v := b.snr[node]; v != 0 {
		return v
	}
	return 12
}

// newScripted builds a scheduler over n nodes on a fresh scripted
// backend, one poll per block.
func newScripted(t *testing.T, n int, policy PollPolicy) (*Scheduler, *scriptBackend) {
	t.Helper()
	b := newScriptBackend(n)
	return newSched(t, b, 1, policy), b
}

// runCycles runs cycles cycles and fails the test on an error.
func runCycles(t *testing.T, s *Scheduler, cycles int) CycleReport {
	t.Helper()
	var rep CycleReport
	for c := 0; c < cycles; c++ {
		var err error
		if rep, err = s.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

func TestSchedulerBasics(t *testing.T) {
	s, b := newScripted(t, 2, DefaultPollPolicy())
	b.tapes[0] = []bool{true}
	b.tapes[1] = []bool{true}
	rep := runCycles(t, s, 1)
	if rep.Polled != 2 || rep.Delivered != 2 || rep.Retries != 0 || rep.Cycle != 0 || rep.Live != 2 {
		t.Errorf("report %+v", rep)
	}
	if b.last[0] != 0 || b.last[1] != 0 {
		t.Error("delivery routing wrong")
	}
	if b.begun != 1 {
		t.Errorf("BeginCycle ran %d times in one cycle", b.begun)
	}
	if st := s.cols.State(0); st.Polls != 1 || st.Successes != 1 || s.cols.Stats.LastSNRdB[0] != 12 {
		t.Errorf("node state %+v, last SNR %v", st, s.cols.Stats.LastSNRdB[0])
	}
	if rep := runCycles(t, s, 1); rep.Cycle != 1 {
		t.Errorf("second cycle reports index %d", rep.Cycle)
	}
}

func TestSchedulerRetries(t *testing.T) {
	s, b := newScripted(t, 1, PollPolicy{MaxRetries: 2})
	b.tapes[0] = []bool{false, false, true} // succeeds on 3rd attempt
	rep := runCycles(t, s, 1)
	if rep.Delivered != 1 || rep.Retries != 2 {
		t.Errorf("report %+v", rep)
	}
	if st := s.cols.State(0); st.Polls != 3 || st.Successes != 1 {
		t.Errorf("state %+v", st)
	}
}

func TestSchedulerDropsDeadNodes(t *testing.T) {
	s, b := newScripted(t, 1, PollPolicy{MaxRetries: 0, DropAfter: 2})
	b.tapes[0] = []bool{false}
	runCycles(t, s, 3)
	st := s.cols.State(0)
	if !st.Dropped {
		t.Fatal("dead node not dropped")
	}
	if st.Polls != 2 {
		t.Errorf("dropped node polled %d times, want 2", st.Polls)
	}
	if rep := runCycles(t, s, 1); rep.Polled != 0 || rep.Dropped != 1 {
		t.Errorf("dropped node still polled: %+v", rep)
	}
}

func TestSchedulerPropagatesErrors(t *testing.T) {
	s, b := newScripted(t, 1, DefaultPollPolicy())
	b.errFor[0] = errors.New("hydrophone unplugged")
	if _, err := s.RunCycle(); err == nil {
		t.Error("transport error swallowed")
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(nil, NewNodeColumns(1), 1, DefaultPollPolicy()); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := NewScheduler(newScriptBackend(1), NewNodeColumns(0), 1, DefaultPollPolicy()); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := NewScheduler(newScriptBackend(1), NewNodeColumns(1), 0, DefaultPollPolicy()); err == nil {
		t.Error("zero block length accepted")
	}
	bad := []PollPolicy{
		{MaxRetries: -1},
		{MaxRetries: 0, DropAfter: -1},
	}
	for i, p := range bad {
		if _, err := NewScheduler(newScriptBackend(1), NewNodeColumns(1), 1, p); err == nil {
			t.Errorf("policy %d accepted", i)
		}
	}
}
