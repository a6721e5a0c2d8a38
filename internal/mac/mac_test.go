package mac

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
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
				o.Delivered, o.SNRdB, o.Corrected = true, b.snrOf(p.Node), 1
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
	if st := s.cols.State(0); st.Polls != 1 || st.Successes != 1 || st.LastSNRdB != 12 {
		t.Errorf("node state %+v", st)
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

func TestDiscoverySlotRangeProperty(t *testing.T) {
	f := func(addr byte, nonce uint16, s uint8) bool {
		slots := int(s)%16 + 1
		got := DiscoverySlot(addr, nonce, slots)
		return got >= 0 && got < slots
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiscoverySlotVariesWithNonce(t *testing.T) {
	// A node must not be stuck in the same slot forever, or two colliding
	// nodes would never separate.
	seen := map[int]bool{}
	for nonce := uint16(0); nonce < 32; nonce++ {
		seen[DiscoverySlot(7, nonce, 8)] = true
	}
	if len(seen) < 4 {
		t.Errorf("address 7 only ever used %d slots", len(seen))
	}
}

func TestSimulateDiscoverySingleton(t *testing.T) {
	got := SimulateDiscovery([]byte{42}, 1, 8, 0, nil)
	if len(got) != 1 || got[0] != 42 {
		t.Errorf("lone node not discovered: %v", got)
	}
}

func TestSimulateDiscoveryCollisions(t *testing.T) {
	// Find two addresses that collide in a known window, then check
	// neither is returned without capture.
	slots := 4
	nonce := uint16(3)
	var a, b byte
	found := false
	for x := byte(1); x < 100 && !found; x++ {
		for y := x + 1; y < 100; y++ {
			if DiscoverySlot(x, nonce, slots) == DiscoverySlot(y, nonce, slots) {
				a, b = x, y
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no colliding pair found (hash degenerate?)")
	}
	got := SimulateDiscovery([]byte{a, b}, nonce, slots, 0, rand.New(rand.NewSource(1)))
	if len(got) != 0 {
		t.Errorf("collision should erase both: %v", got)
	}
	// With certain capture, exactly one survives.
	got = SimulateDiscovery([]byte{a, b}, nonce, slots, 1.0, rand.New(rand.NewSource(1)))
	if len(got) != 1 {
		t.Errorf("full capture should yield one winner: %v", got)
	}
}

func TestDiscoverAllConverges(t *testing.T) {
	addrs := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	rng := rand.New(rand.NewSource(2))
	rounds, found := DiscoverAll(addrs, 8, 0, rng, 100)
	if len(found) != len(addrs) {
		t.Fatalf("discovered %d/%d nodes in %d rounds", len(found), len(addrs), rounds)
	}
	if rounds > 20 {
		t.Errorf("discovery took %d rounds for 10 nodes in 8 slots", rounds)
	}
	for i, a := range found {
		if a != addrs[i] {
			t.Errorf("found[%d] = %d", i, a)
		}
	}
}

func TestDiscoverAllRespectsBudget(t *testing.T) {
	addrs := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	rounds, found := DiscoverAll(addrs, 2, 0, rand.New(rand.NewSource(3)), 1)
	if rounds != 1 {
		t.Errorf("rounds = %d", rounds)
	}
	if len(found) >= len(addrs) {
		t.Error("8 nodes in 2 slots cannot all resolve in one round")
	}
}
