package mac

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vab/internal/telemetry"
)

// syncTrx scripts per-address outcomes like fakeTrx but tolerates
// concurrent polls, and records the chip-rate command each Poll
// received — the fixture for wave-execution tests.
type syncTrx struct {
	mu       sync.Mutex
	outcomes map[byte][]bool
	snr      map[byte]float64
	calls    map[byte]int
	rates    []polledAt // every Poll in call order (serial runs only)
	errFor   map[byte]error
	panicFor map[byte]any
}

type polledAt struct {
	addr byte
	rate float64
}

func newSyncTrx() *syncTrx {
	return &syncTrx{
		outcomes: map[byte][]bool{},
		snr:      map[byte]float64{},
		calls:    map[byte]int{},
		errFor:   map[byte]error{},
		panicFor: map[byte]any{},
	}
}

func (s *syncTrx) Poll(addr byte, rate float64) (RoundResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.errFor[addr]; err != nil {
		return RoundResult{}, err
	}
	if v := s.panicFor[addr]; v != nil {
		panic(v)
	}
	i := s.calls[addr]
	s.calls[addr]++
	s.rates = append(s.rates, polledAt{addr: addr, rate: rate})
	seq := s.outcomes[addr]
	ok := false
	if len(seq) > 0 {
		if i >= len(seq) {
			i = len(seq) - 1
		}
		ok = seq[i]
	}
	snr := s.snr[addr]
	if snr == 0 {
		snr = 12
	}
	return RoundResult{OK: ok, Payload: []byte{addr, byte(i)}, SNRdB: snr}, nil
}

// scriptedOutcomes derives a deterministic outcome tape per address from a
// tiny hash, giving a mix of first-try deliveries, retried deliveries and
// exhausted nodes.
func scriptedOutcomes(trx *syncTrx, addrs []byte) {
	for _, a := range addrs {
		h := uint32(a) * 2654435761
		tape := make([]bool, 8)
		for i := range tape {
			h ^= h >> 13
			h *= 0x5bd1e995
			tape[i] = h%3 != 0
		}
		trx.outcomes[a] = tape
		trx.snr[a] = 8 + float64(a%11)
	}
}

// runScripted executes cycles cycles on a fresh scheduler at the given
// pool width and returns every report plus the final node states.
func runScripted(t *testing.T, workers, cycles int, withRate bool) ([]CycleReport, []NodeState) {
	t.Helper()
	trx := newSyncTrx()
	addrs := make([]byte, 16)
	for i := range addrs {
		addrs[i] = byte(i + 1)
	}
	scriptedOutcomes(trx, addrs)
	s, err := NewScheduler(trx, PollPolicy{
		MaxRetries: 2, DropAfter: 2,
		Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		s.AddNode(a)
	}
	if withRate {
		rc, err := NewRateController([]float64{125, 250, 500}, 6)
		if err != nil {
			t.Fatal(err)
		}
		s.SetRateController(rc)
	}
	s.SetWorkers(workers)
	reps := make([]CycleReport, cycles)
	for c := 0; c < cycles; c++ {
		rep, err := s.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		reps[c] = rep
	}
	return reps, s.Nodes()
}

// TestWaveDeterministicAcrossWorkers pins the determinism contract at the
// MAC layer: identical scripted fleets produce identical reports and node
// state at any pool width, with and without rate adaptation. Run with
// -race this also proves the wave execution shares nothing it should not.
func TestWaveDeterministicAcrossWorkers(t *testing.T) {
	for _, withRate := range []bool{false, true} {
		reps1, nodes1 := runScripted(t, 1, 10, withRate)
		reps8, nodes8 := runScripted(t, 8, 10, withRate)
		if !reflect.DeepEqual(reps1, reps8) {
			t.Errorf("rate=%v: reports diverge across workers 1 vs 8:\n%+v\n%+v", withRate, reps1, reps8)
		}
		if !reflect.DeepEqual(nodes1, nodes8) {
			t.Errorf("rate=%v: node states diverge across workers 1 vs 8", withRate)
		}
	}
}

// TestWaveRateSnapshotBarrier pins the per-wave rate snapshot: every poll
// of a wave sees the same chip-rate command, and a delivery folded in at
// the wave barrier moves the command only for the *next* wave.
func TestWaveRateSnapshotBarrier(t *testing.T) {
	trx := newSyncTrx()
	trx.outcomes[1] = []bool{false, false, false} // retries through every wave
	trx.outcomes[2] = []bool{true}                // delivers in wave 0
	trx.outcomes[3] = []bool{false, false, true}  // delivers in wave 2
	trx.snr[2] = 40                               // big SNR: steps the rate up at the wave-0 barrier

	s, err := NewScheduler(trx, PollPolicy{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []byte{1, 2, 3} {
		s.AddNode(a)
	}
	rc, err := NewRateController([]float64{125, 250, 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rc.Smoothing = 1 // react instantly so wave boundaries are visible
	s.SetRateController(rc)

	if _, err := s.RunCycle(); err != nil {
		t.Fatal(err)
	}
	// Wave 0: three polls at the initial rate. Node 2's 40 dB delivery is
	// folded in at the barrier and climbs the controller, so waves 1 and 2
	// (the retries of nodes 1 and 3) run at the top rate.
	want := []polledAt{
		{1, 125}, {2, 125}, {3, 125},
		{1, 500}, {3, 500},
		{1, 500}, {3, 500},
	}
	if !reflect.DeepEqual(trx.rates, want) {
		t.Errorf("per-wave commands:\n got %+v\nwant %+v", trx.rates, want)
	}
}

// TestWaveLowestAddressError pins deterministic error selection: when
// several polls of a wave fail — by error or by panic — the lowest-address
// failure is reported, no matter how the pool interleaved them, and a
// panicking transceiver fails the cycle instead of crashing it.
func TestWaveLowestAddressError(t *testing.T) {
	cases := []struct {
		name   string
		fail   func(trx *syncTrx)
		prefix string // of the error's first line
	}{
		{"errors", func(trx *syncTrx) {
			trx.errFor[3] = errors.New("flooded")
			trx.errFor[5] = errors.New("also flooded")
		}, "mac: poll 3: flooded"},
		{"panic below error", func(trx *syncTrx) {
			trx.panicFor[3] = "transceiver bug"
			trx.errFor[5] = errors.New("flooded")
		}, "mac: poll 3: mac_poll: index 1: panic: transceiver bug"},
		{"error below panic", func(trx *syncTrx) {
			trx.errFor[3] = errors.New("flooded")
			trx.panicFor[5] = "transceiver bug"
		}, "mac: poll 3: flooded"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			trx := newSyncTrx()
			trx.outcomes[2] = []bool{true}
			tc.fail(trx)
			s, err := NewScheduler(trx, DefaultPollPolicy())
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []byte{2, 3, 5} {
				s.AddNode(a)
			}
			s.SetWorkers(workers)
			_, err = s.RunCycle()
			if err == nil {
				t.Fatalf("%s, workers=%d: no error", tc.name, workers)
			}
			if head, _, _ := strings.Cut(err.Error(), "\n"); head != tc.prefix {
				t.Errorf("%s, workers=%d: error %q, want the lowest-address failure %q", tc.name, workers, head, tc.prefix)
			}
		}
	}
}

// TestWaveTelemetry checks the per-wave instruments: wave width per
// retry wave, pool occupancy, straggler overhang and the pool gauge.
func TestWaveTelemetry(t *testing.T) {
	trx := newSyncTrx()
	trx.outcomes[1] = []bool{true}
	trx.outcomes[2] = []bool{false, true} // forces a second (width-1) wave
	s, err := NewScheduler(trx, PollPolicy{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.AddNode(1)
	s.AddNode(2)
	s.SetWorkers(4)
	s.Instrument(reg)
	if _, err := s.RunCycle(); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, snap := range reg.Snapshot() {
		got[snap.Name] = snap.Value
	}
	if got["vab_mac_wave_pool_size"] != 4 {
		t.Errorf("pool gauge %g, want 4", got["vab_mac_wave_pool_size"])
	}
	if s.met.waveWidth.Count() != 2 {
		t.Errorf("wave count %d, want 2 (initial wave + one retry wave)", s.met.waveWidth.Count())
	}
	if sum := s.met.waveWidth.Sum(); sum != 3 {
		t.Errorf("total wave width %g, want 3 polls", sum)
	}
	if s.met.straggler.Count() != 2 {
		t.Errorf("straggler observations %d, want one per wave", s.met.straggler.Count())
	}
	// Occupancy: wave 0 used 2 of 4 workers (0.5), wave 1 used 1 (0.25).
	if sum := s.met.waveOcc.Sum(); sum != 0.75 {
		t.Errorf("occupancy sum %g, want 0.75", sum)
	}
	if s.met.pollTime.Count() != 3 {
		t.Errorf("poll-time observations %d, want 3", s.met.pollTime.Count())
	}
}

// TestWaveCountersMatchSerialContract re-checks the serial bookkeeping
// invariants on a mixed wave: counters must be what the pre-wave serial
// scheduler produced for the same tapes.
func TestWaveCountersMatchSerialContract(t *testing.T) {
	trx := newSyncTrx()
	trx.outcomes[1] = []bool{true}               // 1 poll
	trx.outcomes[2] = []bool{false, true}        // 2 polls, 1 retry
	trx.outcomes[3] = []bool{false, false, true} // 3 polls, 2 retries
	trx.outcomes[4] = []bool{false}              // 3 polls, 2 retries, undelivered
	s, err := NewScheduler(trx, PollPolicy{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	for a := byte(1); a <= 4; a++ {
		s.AddNode(a)
	}
	s.SetWorkers(8)
	rep, err := s.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Polled != 4 || rep.Delivered != 3 || rep.Retries != 5 || rep.Probes != 0 {
		t.Errorf("report %+v, want Polled 4 Delivered 3 Retries 5", rep)
	}
	wantPolls := map[byte]int{1: 1, 2: 2, 3: 3, 4: 3}
	for _, st := range s.Nodes() {
		if st.Polls != wantPolls[st.Addr] {
			t.Errorf("node %d: polls %d, want %d", st.Addr, st.Polls, wantPolls[st.Addr])
		}
	}
	for a := byte(1); a <= 3; a++ {
		if want := fmt.Sprintf("%c%c", a, wantPolls[a]-1); string(rep.Payloads[a]) != want {
			t.Errorf("node %d payload % x, want the final attempt's", a, rep.Payloads[a])
		}
	}
}
