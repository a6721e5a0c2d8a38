package mac

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeTrx scripts per-address outcomes: each Poll consumes the next entry
// of the node's outcome list (last entry repeats).
type fakeTrx struct {
	outcomes map[byte][]bool
	calls    map[byte]int
	err      error
}

func newFakeTrx() *fakeTrx {
	return &fakeTrx{outcomes: map[byte][]bool{}, calls: map[byte]int{}}
}

func (f *fakeTrx) Poll(addr byte, _ float64) (RoundResult, error) {
	if f.err != nil {
		return RoundResult{}, f.err
	}
	seq := f.outcomes[addr]
	i := f.calls[addr]
	f.calls[addr]++
	ok := false
	if len(seq) > 0 {
		if i >= len(seq) {
			i = len(seq) - 1
		}
		ok = seq[i]
	}
	return RoundResult{OK: ok, Payload: []byte{addr}, SNRdB: 12}, nil
}

func TestSchedulerBasics(t *testing.T) {
	trx := newFakeTrx()
	trx.outcomes[1] = []bool{true}
	trx.outcomes[2] = []bool{true}
	s, err := NewScheduler(trx, DefaultPollPolicy())
	if err != nil {
		t.Fatal(err)
	}
	s.AddNode(2)
	s.AddNode(1)
	s.AddNode(1) // duplicate ignored
	rep, err := s.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polled != 2 || rep.Delivered != 2 || rep.Retries != 0 {
		t.Errorf("report %+v", rep)
	}
	if string(rep.Payloads[1]) != "\x01" {
		t.Error("payload routing wrong")
	}
	nodes := s.Nodes()
	if len(nodes) != 2 || nodes[0].Addr != 1 || nodes[1].Addr != 2 {
		t.Errorf("nodes %+v", nodes)
	}
	if r := s.DeliveryRatio(1); r != 1 {
		t.Errorf("delivery ratio %v", r)
	}
	if s.DeliveryRatio(99) != 0 {
		t.Error("unknown node should report 0")
	}
}

func TestSchedulerRetries(t *testing.T) {
	trx := newFakeTrx()
	trx.outcomes[5] = []bool{false, false, true} // succeeds on 3rd attempt
	s, _ := NewScheduler(trx, PollPolicy{MaxRetries: 2})
	s.AddNode(5)
	rep, err := s.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered != 1 || rep.Retries != 2 {
		t.Errorf("report %+v", rep)
	}
	if st := s.Nodes()[0]; st.Polls != 3 || st.Successes != 1 {
		t.Errorf("state %+v", st)
	}
}

func TestSchedulerDropsDeadNodes(t *testing.T) {
	trx := newFakeTrx()
	trx.outcomes[9] = []bool{false}
	s, _ := NewScheduler(trx, PollPolicy{MaxRetries: 0, DropAfter: 2})
	s.AddNode(9)
	for i := 0; i < 3; i++ {
		if _, err := s.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Nodes()[0]
	if !st.Dropped {
		t.Fatal("dead node not dropped")
	}
	if st.Polls != 2 {
		t.Errorf("dropped node polled %d times, want 2", st.Polls)
	}
	rep, _ := s.RunCycle()
	if rep.Polled != 0 {
		t.Error("dropped node still polled")
	}
}

func TestSchedulerPropagatesErrors(t *testing.T) {
	trx := newFakeTrx()
	trx.err = errors.New("hydrophone unplugged")
	s, _ := NewScheduler(trx, DefaultPollPolicy())
	s.AddNode(1)
	if _, err := s.RunCycle(); err == nil {
		t.Error("transport error swallowed")
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(nil, DefaultPollPolicy()); err == nil {
		t.Error("nil transceiver accepted")
	}
	bad := []PollPolicy{
		{MaxRetries: -1},
		{MaxRetries: 0, DropAfter: -1},
	}
	for i, p := range bad {
		if _, err := NewScheduler(newFakeTrx(), p); err == nil {
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
