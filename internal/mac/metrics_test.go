package mac

import (
	"testing"

	"vab/internal/telemetry"
)

// flakyTrx fails every poll until attempt n, then succeeds.
type flakyTrx struct {
	calls     int
	failUntil int
}

func (f *flakyTrx) Poll(addr byte, _ float64) (RoundResult, error) {
	f.calls++
	if f.calls <= f.failUntil {
		return RoundResult{}, nil
	}
	return RoundResult{OK: true, Payload: []byte{addr}, SNRdB: 12}, nil
}

func TestSchedulerMetrics(t *testing.T) {
	trx := &flakyTrx{failUntil: 2}
	s, err := NewScheduler(trx, PollPolicy{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	s.AddNode(1)
	if _, err := s.RunCycle(); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, snap := range reg.Snapshot() {
		got[snap.Name] = snap.Value
	}
	// Two timeouts, then the third attempt delivers.
	for name, want := range map[string]float64{
		"vab_mac_polls_total":      3,
		"vab_mac_retries_total":    2,
		"vab_mac_timeouts_total":   2,
		"vab_mac_deliveries_total": 1,
		"vab_mac_live_nodes":       1,
	} {
		if got[name] != want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}

func TestSchedulerDropMetric(t *testing.T) {
	trx := &flakyTrx{failUntil: 1 << 30} // never succeeds
	s, err := NewScheduler(trx, PollPolicy{MaxRetries: 0, DropAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	s.AddNode(1)
	for i := 0; i < 3; i++ {
		if _, err := s.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]float64{}
	for _, snap := range reg.Snapshot() {
		got[snap.Name] = snap.Value
	}
	if got["vab_mac_nodes_dropped_total"] != 1 {
		t.Errorf("dropped_total = %g, want 1", got["vab_mac_nodes_dropped_total"])
	}
	if got["vab_mac_live_nodes"] != 0 {
		t.Errorf("live_nodes = %g, want 0", got["vab_mac_live_nodes"])
	}
}

func TestRateControllerMetrics(t *testing.T) {
	rc, err := NewRateController([]float64{250, 500, 1000}, 6)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rc.Instrument(reg)
	rc.Smoothing = 1 // react instantly so the test is deterministic
	rc.Observe(40)   // plenty of SNR: climb to the top rate (two steps up)
	rc.ObserveLoss() // lost round: one forced step down
	got := map[string]float64{}
	for _, snap := range reg.Snapshot() {
		got[snap.Name] = snap.Value
	}
	if got["vab_mac_rate_steps_up_total"] != 2 {
		t.Errorf("steps_up = %g, want 2", got["vab_mac_rate_steps_up_total"])
	}
	if got["vab_mac_rate_loss_steps_total"] != 1 {
		t.Errorf("loss_steps = %g, want 1", got["vab_mac_rate_loss_steps_total"])
	}
	if got["vab_mac_rate_chips_per_second"] != rc.Rate() {
		t.Errorf("chip rate gauge %g != %g", got["vab_mac_rate_chips_per_second"], rc.Rate())
	}
}

// TestUninstrumentedSchedulerIsNoop pins the default-off contract at the
// MAC layer.
func TestUninstrumentedSchedulerIsNoop(t *testing.T) {
	trx := &flakyTrx{}
	s, err := NewScheduler(trx, DefaultPollPolicy())
	if err != nil {
		t.Fatal(err)
	}
	s.Instrument(nil) // explicit nil must stay noop
	s.AddNode(9)
	if _, err := s.RunCycle(); err != nil {
		t.Fatal(err)
	}
}
