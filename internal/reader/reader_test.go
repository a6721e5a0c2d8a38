package reader

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"vab/internal/channel"
	"vab/internal/dsp"
	"vab/internal/link"
	"vab/internal/node"
	"vab/internal/ocean"
	"vab/internal/phy"
)

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AcquireThreshold = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero threshold accepted")
	}
	cfg = DefaultConfig()
	cfg.PHY.ChipRate = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad PHY accepted")
	}
}

func TestSourceAmplitude(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.SourceAmplitude(); got != 1e9 {
		t.Errorf("amplitude %v µPa, want 1e9", got)
	}
	env := r.CarrierEnvelope(16)
	if len(env) != 16 || real(env[3]) != 1e9 {
		t.Error("carrier envelope wrong")
	}
}

func TestQueryWaveformDecodableByNodeReceiver(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, f, err := r.QueryWaveform(5, 9)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != link.FrameQuery || f.Addr != 5 || f.Seq != 9 {
		t.Errorf("query frame %+v", f)
	}
	// Node-side pipeline: envelope detector → Manchester decode.
	ook, err := phy.NewOOKDemodulator(r.cfg.PHY)
	if err != nil {
		t.Fatal(err)
	}
	nChips := r.cfg.DownlinkCodec.ChipLength(0)
	chips, err := ook.DemodChips(w, 0, nChips)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.cfg.DownlinkCodec.DecodeFrame(chips)
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr != 5 || got.Seq != 9 || got.Type != link.FrameQuery {
		t.Errorf("decoded query %+v", got)
	}
}

func TestDecodeNoBurst(t *testing.T) {
	r, _ := New(DefaultConfig())
	noise := dsp.GaussianNoise(make([]complex128, 8192), 1, newRng(3))
	rep := r.Decode(noise, nil, node.PayloadSize)
	if rep.OK() {
		t.Fatal("decoded a frame from pure noise")
	}
	if !errors.Is(rep.Err, ErrNoBurst) {
		t.Errorf("err = %v, want ErrNoBurst", rep.Err)
	}
}

// TestEndToEndQueryResponse is the keystone integration test: a full
// query-response round between a reader and a battery-free node over the
// simulated river channel.
func TestEndToEndQueryResponse(t *testing.T) {
	env := ocean.CharlesRiver()
	const rng = 30.0 // meters

	cfg := DefaultConfig()
	r, err := New(cfg)
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

	ch, err := channel.New(channel.Config{
		Env:                env,
		CarrierHz:          18.5e3,
		SampleRate:         cfg.PHY.SampleRate,
		ReaderDepth:        2,
		NodeDepth:          2.5,
		Range:              rng,
		SelfInterferenceDB: -30,
		Seed:               11,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: carrier on, node harvests. Pressure at node from SL − TL.
	tl := env.TransmissionLoss(18.5e3, rng)
	pAtNode := math.Pow(10, (SourceLevelDB-tl)/20) * 1e-6 // µPa → Pa
	n.Harvest(pAtNode, 1025*env.MeanSoundSpeed(), 3600)
	if n.State() != node.StateListen {
		t.Fatalf("node failed to wake: %v", n.State())
	}

	// Phase 2: downlink query through the channel, node decodes it.
	qw, qf, err := r.QueryWaveform(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	atNode := ch.DownlinkInto(make([]complex128, len(qw)), qw)
	ook, _ := phy.NewOOKDemodulator(cfg.PHY)
	nChips := cfg.DownlinkCodec.ChipLength(0)
	chips, err := ook.DemodChips(atNode, 0, nChips)
	if err != nil {
		t.Fatal(err)
	}
	gotQ, _, err := cfg.DownlinkCodec.DecodeFrame(chips)
	if err != nil {
		t.Fatalf("node failed to decode query: %v", err)
	}
	if gotQ.Addr != qf.Addr {
		t.Fatalf("query addr corrupted: %+v", gotQ)
	}

	// Phase 3: node responds by modulating its reflection.
	gammaBits, err := n.HandleQuery(gotQ)
	if err != nil {
		t.Fatal(err)
	}
	if gammaBits == nil {
		t.Fatal("node stayed silent")
	}

	// Phase 4: backscatter round trip. The node's scatter gain bundles the
	// array's retrodirective response and modulation depth; a plain
	// single-element node at short range is enough for this test.
	pad := 900
	total := pad + len(gammaBits) + 600
	tx := r.CarrierEnvelope(total)
	gamma := make([]complex128, total)
	for i, g := range gammaBits {
		gamma[pad+i] = complex(g, 0)
	}
	const nodeGain = 0.05
	capture, err := ch.RoundTrip(tx, gamma, complex(nodeGain, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 5: reader decodes the response.
	rep := r.Decode(capture, tx, node.PayloadSize)
	if !rep.OK() {
		t.Fatalf("reader failed to decode: %v (acq %.3f)", rep.Err, rep.AcqMetric)
	}
	if rep.Frame.Addr != 7 || rep.Frame.Type != link.FrameData {
		t.Errorf("frame %+v", rep.Frame)
	}
	reading, ok := node.DecodeReading(rep.Frame.Payload)
	if !ok {
		t.Fatal("payload not a sensor reading")
	}
	if reading.Count != 0 {
		t.Errorf("reading count %d, want 0", reading.Count)
	}
	if rep.SNREstimate < 1 {
		t.Errorf("SNR estimate %v suspiciously low for 30 m", rep.SNREstimate)
	}
}

// TestEndToEndPayloadIntegrity runs the round trip at a longer range and
// verifies the payload bytes survive bit-exactly. Shallow-water channel
// realizations at 100 m can land in static interference fades, so the test
// retries across a few channel seeds (a real deployment decorrelates
// between polls through platform sway) and requires a bit-exact payload on
// the first realization that decodes.
func TestEndToEndPayloadIntegrity(t *testing.T) {
	cfg := DefaultConfig()
	r, _ := New(cfg)

	decoded := false
	for seed := int64(23); seed < 29 && !decoded; seed++ {
		n, _ := node.New(node.Config{
			Addr: 3, Codec: cfg.UplinkCodec, PHY: cfg.PHY,
			Harvest: node.DefaultHarvester(),
			Sensor:  node.NewEnvSensor(12, 4, 5),
		})
		n.Harvest(100, 1025*1480, 3600)
		ch, err := channel.New(channel.Config{
			Env: ocean.CharlesRiver(), CarrierHz: 18.5e3, SampleRate: cfg.PHY.SampleRate,
			ReaderDepth: 2, NodeDepth: 2.5 + 0.01*float64(seed-23), Range: 100,
			SelfInterferenceDB: -30, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		gammaBits, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 3})
		if err != nil || gammaBits == nil {
			t.Fatal(err)
		}
		sensorWant := node.NewEnvSensor(12, 4, 5).Read()

		pad := 512
		total := pad + len(gammaBits) + 512
		tx := r.CarrierEnvelope(total)
		gamma := make([]complex128, total)
		for i, g := range gammaBits {
			gamma[pad+i] = complex(g, 0)
		}
		capture, err := ch.RoundTrip(tx, gamma, complex(0.05, 0))
		if err != nil {
			t.Fatal(err)
		}
		rep := r.Decode(capture, tx, node.PayloadSize)
		if !rep.OK() {
			continue
		}
		decoded = true
		if !bytes.Equal(rep.Frame.Payload, sensorWant) {
			t.Errorf("payload %x, want %x", rep.Frame.Payload, sensorWant)
		}
	}
	if !decoded {
		t.Fatal("no channel realization decoded at 100 m across 6 geometries")
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestConfigAccessorAndRangeMath(t *testing.T) {
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Config().AcquireThreshold; got != 0.22 {
		t.Errorf("config accessor returned %v", got)
	}
	// EstimateRange: 160 samples at 16 kHz is 10 ms RTT → 7.4 m at
	// c = 1480 m/s.
	if got := r.EstimateRange(660, 500, 1480); got != 7.4 {
		t.Errorf("EstimateRange = %v, want 7.4", got)
	}
	// Negative flight time (acquisition before transmit) reports negative:
	// the caller treats it as invalid.
	if got := r.EstimateRange(100, 200, 1480); got >= 0 {
		t.Errorf("backwards time of flight should be negative, got %v", got)
	}
}

func TestQueryWaveformEncodeError(t *testing.T) {
	cfg := DefaultConfig()
	// A downlink codec with FEC demands 4-bit alignment, which frames
	// always satisfy, so break it with an invalid interleave depth
	// instead: depth 5 does not divide the frame's bit count.
	cfg.DownlinkCodec = link.Codec{Code: link.Manchester, InterleaveDepth: 5}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.QueryWaveform(1, 0); err == nil {
		t.Error("unencodable downlink codec should surface an error")
	}
}
