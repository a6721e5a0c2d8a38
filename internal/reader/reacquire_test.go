package reader

import (
	"errors"
	"math"
	"testing"

	"vab/internal/channel"
	"vab/internal/link"
	"vab/internal/node"
	"vab/internal/ocean"
)

// buildCleanCapture runs a node response through the river channel and
// returns (capture, tx) ready for Decode.
func buildCleanCapture(t *testing.T, cfg Config, r *Reader) ([]complex128, []complex128) {
	t.Helper()
	env := ocean.CharlesRiver()
	ch, err := channel.New(channel.Config{
		Env:                env,
		CarrierHz:          18.5e3,
		SampleRate:         cfg.PHY.SampleRate,
		ReaderDepth:        2,
		NodeDepth:          2.5,
		Range:              30,
		SelfInterferenceDB: -30,
		Seed:               11,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{
		Addr:    7,
		Codec:   cfg.UplinkCodec,
		PHY:     cfg.PHY,
		Budget:  node.DefaultPowerBudget(),
		Harvest: node.DefaultHarvester(),
		Sensor:  node.NewEnvSensor(15, 2.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := env.TransmissionLoss(18.5e3, 30)
	pAtNode := math.Pow(10, (cfg.SourceLevelDB-tl)/20) * 1e-6 // µPa → Pa
	n.Harvest(pAtNode, 1025*env.MeanSoundSpeed(), 3600)
	gammaBits, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 7})
	if err != nil || gammaBits == nil {
		t.Fatalf("node response: bits=%v err=%v", gammaBits != nil, err)
	}
	pad := 900
	total := pad + len(gammaBits) + 600
	tx := r.CarrierEnvelope(total)
	gamma := make([]complex128, total)
	for i, g := range gammaBits {
		gamma[pad+i] = complex(g, 0)
	}
	capture, err := ch.RoundTrip(tx, gamma, complex(0.05, 0))
	if err != nil {
		t.Fatal(err)
	}
	return capture, tx
}

// TestReacquireRecoversWeakCorrelation sets the acquisition threshold
// above what a genuine burst correlates at: the single-attempt reader must
// fail, while the reacquiring reader steps its threshold down to the burst
// and decodes the same capture.
func TestReacquireRecoversWeakCorrelation(t *testing.T) {
	strict := DefaultConfig()
	strict.AcquireThreshold = 0.9
	single, err := New(strict)
	if err != nil {
		t.Fatal(err)
	}
	capture, tx := buildCleanCapture(t, strict, single)

	rep := single.Decode(capture, tx, node.PayloadSize)
	if rep.OK() {
		t.Skipf("capture correlates at %.3f >= 0.9; premise gone", rep.AcqMetric)
	}
	if !errors.Is(rep.Err, ErrNoBurst) {
		t.Fatalf("single-attempt failure = %v, want ErrNoBurst", rep.Err)
	}

	strict.Reacquire = true
	strict.ReacquireMax = 20
	strict.ReacquireStep = 0.05
	strict.ReacquireFloor = 0.05
	stepper, err := New(strict)
	if err != nil {
		t.Fatal(err)
	}
	rep = stepper.Decode(capture, tx, node.PayloadSize)
	if !rep.OK() {
		t.Fatalf("reacquisition failed to recover the burst: %v (acq %.3f)", rep.Err, rep.AcqMetric)
	}
	if rep.Frame.Addr != 7 {
		t.Errorf("recovered frame %+v", rep.Frame)
	}
}

// TestReacquireBoundedByFloor verifies the retry budget: with a floor
// above the burst's correlation the stepper must give up (no unbounded
// descent into false acquisitions).
func TestReacquireBoundedByFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AcquireThreshold = 0.95
	cfg.Reacquire = true
	cfg.ReacquireMax = 2
	cfg.ReacquireStep = 0.01
	cfg.ReacquireFloor = 0.9
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capture, tx := buildCleanCapture(t, cfg, r)
	rep := r.Decode(capture, tx, node.PayloadSize)
	if rep.OK() {
		t.Skipf("capture correlates at %.3f >= 0.9; premise gone", rep.AcqMetric)
	}
	if !errors.Is(rep.Err, ErrNoBurst) {
		t.Fatalf("bounded reacquire failure = %v, want ErrNoBurst", rep.Err)
	}
}

// Reacquire defaults resolve only when the fields are zero.
func TestReacquireDefaults(t *testing.T) {
	var c Config
	max, step, floor := c.reacquire()
	if max != 2 || step != 0.05 || floor != 0.08 {
		t.Fatalf("defaults = %d %.3g %.3g", max, step, floor)
	}
	c.ReacquireMax, c.ReacquireStep, c.ReacquireFloor = 5, 0.1, 0.2
	max, step, floor = c.reacquire()
	if max != 5 || step != 0.1 || floor != 0.2 {
		t.Fatalf("overrides = %d %.3g %.3g", max, step, floor)
	}
}
