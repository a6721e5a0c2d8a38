package reader

import (
	"errors"
	"math"
	"testing"

	"vab/internal/channel"
	"vab/internal/link"
	"vab/internal/node"
	"vab/internal/ocean"
	"vab/internal/telemetry"
)

// buildCleanCapture runs a node response through the river channel and
// returns (capture, tx) ready for Decode. Without burst the node stays
// silent, so the capture holds only the carrier and the channel.
func buildCleanCapture(t *testing.T, cfg Config, r *Reader, burst bool) ([]complex128, []complex128) {
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
		Harvest: node.DefaultHarvester(),
		Sensor:  node.NewEnvSensor(15, 2.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := env.TransmissionLoss(18.5e3, 30)
	pAtNode := math.Pow(10, (SourceLevelDB-tl)/20) * 1e-6 // µPa → Pa
	n.Harvest(pAtNode, 1025*env.MeanSoundSpeed(), 3600)
	gammaBits, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 7})
	if err != nil || gammaBits == nil {
		t.Fatalf("node response: bits=%v err=%v", gammaBits != nil, err)
	}
	pad := 900
	total := pad + len(gammaBits) + 600
	tx := r.CarrierEnvelope(total)
	gamma := make([]complex128, total)
	if burst {
		for i, g := range gammaBits {
			gamma[pad+i] = complex(g, 0)
		}
	}
	capture, err := ch.RoundTrip(tx, gamma, complex(0.05, 0))
	if err != nil {
		t.Fatal(err)
	}
	return capture, tx
}

// acquireAt decodes capture with the default reader at threshold thr,
// reacquiring or not, and returns the report with the number of extra
// acquisition attempts it made.
func acquireAt(t *testing.T, thr float64, reacquire bool, capture, tx []complex128) (RxReport, int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.AcquireThreshold = thr
	cfg.Reacquire = reacquire
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	rep := r.Decode(capture, tx, node.PayloadSize)
	return rep, reg.Counter("vab_reader_reacquire_attempts_total", "").Value()
}

// cleanBurst is the clean river capture and the correlation at which the
// default reader acquires it.
func cleanBurst(t *testing.T) (capture, tx []complex128, metric float64) {
	t.Helper()
	cfg := DefaultConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capture, tx = buildCleanCapture(t, cfg, r, true)
	rep, _ := acquireAt(t, cfg.AcquireThreshold, false, capture, tx)
	if !rep.OK() {
		t.Fatalf("default reader fails the clean capture: %v", rep.Err)
	}
	return capture, tx, rep.AcqMetric
}

// TestReacquireRecoversWeakCorrelation sets the acquisition threshold one
// and a half steps above what a genuine burst correlates at: the
// single-attempt reader must fail, while the reacquiring reader steps its
// threshold down by reacquireStep twice and decodes the same capture.
func TestReacquireRecoversWeakCorrelation(t *testing.T) {
	capture, tx, metric := cleanBurst(t)
	thr := metric + 1.5*reacquireStep
	if thr >= 1 {
		t.Skipf("capture correlates at %.3f; no threshold above it is valid", metric)
	}
	rep, _ := acquireAt(t, thr, false, capture, tx)
	if !errors.Is(rep.Err, ErrNoBurst) {
		t.Fatalf("single-attempt failure = %v, want ErrNoBurst", rep.Err)
	}
	rep, attempts := acquireAt(t, thr, true, capture, tx)
	if !rep.OK() {
		t.Fatalf("reacquisition failed to recover the burst: %v", rep.Err)
	}
	if rep.Frame.Addr != 7 {
		t.Errorf("recovered frame %+v", rep.Frame)
	}
	if attempts != 2 {
		t.Errorf("recovered after %d attempts, want 2", attempts)
	}
}

// TestReacquireBoundedByFloor verifies the retry budget: the stepper gives
// up after reacquireMax attempts when those steps stay above the burst,
// and a threshold less than one step above reacquireFloor gets exactly one
// attempt, at the floor (no unbounded descent into false acquisitions).
func TestReacquireBoundedByFloor(t *testing.T) {
	capture, tx, metric := cleanBurst(t)
	thr := metric + (reacquireMax+0.5)*reacquireStep
	if thr >= 1 {
		t.Skipf("capture correlates at %.3f; no threshold above it is valid", metric)
	}
	rep, attempts := acquireAt(t, thr, true, capture, tx)
	if !errors.Is(rep.Err, ErrNoBurst) {
		t.Fatalf("bounded reacquire failure = %v, want ErrNoBurst", rep.Err)
	}
	if attempts != reacquireMax {
		t.Errorf("gave up after %d attempts, want %d", attempts, reacquireMax)
	}

	// A silent node's capture peaks near 0.11 on the carrier and its
	// echoes: below the starting threshold, above the floor. The one
	// attempt, at the floor, acquires that peak, and the report fails
	// later, in demodulation.
	cfg := DefaultConfig()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	silent, tx := buildCleanCapture(t, cfg, r, false)
	rep, attempts = acquireAt(t, reacquireFloor+0.9*reacquireStep, true, silent, tx)
	if rep.OK() {
		t.Fatalf("a silent node decoded: %+v", rep.Frame)
	}
	if attempts != 1 {
		t.Errorf("silent capture: %d attempts, want 1 at the floor", attempts)
	}
}

// TestReacquireDefaults pins the reacquisition policy.
func TestReacquireDefaults(t *testing.T) {
	if reacquireMax != 2 || reacquireStep != 0.05 || reacquireFloor != 0.08 {
		t.Fatalf("policy = %d %.3g %.3g, want 2 0.05 0.08", reacquireMax, reacquireStep, reacquireFloor)
	}
}
