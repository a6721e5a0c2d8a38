package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"

	"vab/internal/channel"
	"vab/internal/faults"
	"vab/internal/link"
	"vab/internal/node"
	"vab/internal/ocean"
	"vab/internal/phy"
	"vab/internal/reader"
	"vab/internal/telemetry"
)

// SystemConfig describes one reader↔node deployment for waveform-level
// simulation.
type SystemConfig struct {
	Env    *ocean.Environment
	Design Design

	Range       float64 // horizontal reader↔node range, m
	Orientation float64 // node rotation, radians (0 = facing the reader)
	ReaderDepth float64 // 0 → mid-column
	NodeDepth   float64 // 0 → mid-column

	Reader   reader.Config // zero value → reader.DefaultConfig()
	NodeAddr byte

	// SelfInterferenceDB overrides the default −30 dB projector→hydrophone
	// coupling when nonzero.
	SelfInterferenceDB float64

	// DisableFading switches the channel's fading process off.
	DisableFading bool

	// SensorBatch selects the node's payload format: ≤1 (the default)
	// keeps the v1 single-reading 8-byte payload and bit-identical seeded
	// transcripts; 2..node.MaxPackedBatch equips the node with a
	// PackedEnvSensor whose fixed-size packed payload carries that many
	// delta-coded readings per response frame.
	SensorBatch int

	Seed int64
}

// swayRMS is the RMS mooring sway in meters applied independently to the
// geometry before every round. At an 8 cm wavelength, centimeter-scale
// platform motion decorrelates multipath interference nulls between polls
// — a static geometry would freeze a deployment in whatever null it
// happened to land in, which no real float experiences.
const swayRMS = 0.05

// System is a fully assembled waveform-level deployment: reader, channel
// and a battery-free node. It exercises every block the paper's prototype
// contains — downlink OOK decoding at the node, reflection modulation,
// round-trip propagation, self-interference cancellation and uplink
// demodulation at the reader.
type System struct {
	Reader *reader.Reader
	Node   *node.Node
	Link   *channel.Link

	cfg      SystemConfig
	nodeGain complex128 // scatter field × structural loss at this orientation
	deltaG   float64    // reflection contrast 2·ModulationDepth
	querySeq byte
	sway     *rand.Rand
	linkSeed int64

	// payloadLen is the response payload size the reader expects (the
	// demodulation window must be sized before decoding): node.PayloadSize
	// for v1 sensors, the fixed padded packed size when SensorBatch > 1.
	payloadLen int
	// readingsBuf is reused by RunRound's payload validation so packed
	// multi-reading payloads parse without allocating per round.
	readingsBuf []node.Reading

	// ook is the node-side downlink demodulator, built once: it is
	// configuration-only, so constructing it per round bought nothing.
	ook *phy.OOKDemodulator

	// Round-pipeline buffers, reused across rounds so a steady-state poll
	// loop stops allocating waveform-sized slices (see the channel
	// package's allocation-discipline notes). RecordRound intentionally
	// bypasses captureBuf: its capture escapes to the caller.
	txBuf      []complex128
	gammaBuf   []complex128
	captureBuf []complex128
	dlBuf      []complex128
	queryBuf   []complex128

	// Stage timers for RunRound's pipeline (vab_round_stage_seconds
	// {stage=…}); nil (the default) records nothing. Resolved once by
	// Instrument.
	stModulate, stChannel, stNode, stDecode *telemetry.Histogram
	rounds                                  *telemetry.Counter
	reg                                     *telemetry.Registry

	// Fault-injection state (see chaos.go). chaos nil means no engine is
	// attached and the round pipeline behaves exactly as before this hook
	// existed. The applied* fields track sticky fault state so plans are
	// re-applied only when they change.
	chaos             *faults.Engine
	chaosRound        int
	appliedDeadFrac   float64
	appliedClockDelta float64
	shadowDB          float64
}

// Instrument enables round-stage tracing (vab_round_stage_seconds) and
// receive-chain metrics for this system. The rounds counter and stage
// histograms aggregate across systems instrumented against one registry.
// A nil registry is a no-op; telemetry never perturbs the seeded RNGs, so
// instrumented and bare runs are bit-identical.
func (s *System) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram(telemetry.Label("vab_round_stage_seconds", "stage", name),
			"Wall time of one system round's pipeline stages.", nil)
	}
	s.stModulate, s.stChannel = stage("modulate"), stage("channel")
	s.stNode, s.stDecode = stage("node"), stage("decode")
	s.rounds = reg.Counter("vab_round_total",
		"Query-response rounds executed at waveform level.")
	s.reg = reg
	s.Reader.Instrument(reg)
	s.chaos.Instrument(reg)
}

// rebuildLink refreshes the channel with mooring sway applied to the
// nominal geometry, so consecutive rounds see decorrelated multipath
// phases just as a real float does. The first call constructs the Link;
// every later call rebuilds it in place (channel.Link.Rebuild), which is
// bit-identical to constructing a fresh link for the jittered geometry but
// reuses all of its storage.
func (s *System) rebuildLink() error {
	cfg := s.cfg
	jitter := func(v, min, max float64) float64 {
		j := v + s.sway.NormFloat64()*swayRMS
		if j < min {
			j = min
		}
		if j > max {
			j = max
		}
		return j
	}
	s.linkSeed++
	// Draw order (reader depth, node depth, range) matches the historical
	// per-round channel.New construction; seeded runs depend on it.
	rd := jitter(cfg.ReaderDepth, 0.3, cfg.Env.Depth-0.1)
	nd := jitter(cfg.NodeDepth, 0.3, cfg.Env.Depth-0.1)
	rg := jitter(cfg.Range, 1, math.Inf(1))
	seed := cfg.Seed + s.linkSeed
	if s.Link != nil {
		return s.Link.Rebuild(channel.Geometry{ReaderDepth: rd, NodeDepth: nd, Range: rg}, seed)
	}
	l, err := channel.New(channel.Config{
		Env:                cfg.Env,
		CarrierHz:          DefaultCarrierHz,
		SampleRate:         cfg.Reader.PHY.SampleRate,
		ReaderDepth:        rd,
		NodeDepth:          nd,
		Range:              rg,
		SelfInterferenceDB: cfg.SelfInterferenceDB,
		DisableFading:      cfg.DisableFading,
		Seed:               seed,
	})
	if err != nil {
		return err
	}
	s.Link = l
	return nil
}

// growRoundBuf returns buf resized to n, reallocating only when the
// capacity is insufficient (monotone growth: steady-state rounds reuse).
func growRoundBuf(buf []complex128, n int) []complex128 {
	if cap(buf) < n {
		return make([]complex128, n)
	}
	return buf[:n]
}

// uplinkWaveforms assembles an uplink exchange for the node's reflection
// sequence gammaBits: the reused transmit-carrier and node-reflection
// buffers, with four chips of carrier on each side of the response, which
// starts at sample pad. Callers must not retain the returned slices past
// the round; RecordRound, whose capture escapes, still allocates that
// capture.
func (s *System) uplinkWaveforms(gammaBits []float64) (tx, gamma []complex128, pad int) {
	pad = 4 * s.cfg.Reader.PHY.SamplesPerChip()
	total := pad + len(gammaBits) + pad
	s.txBuf = growRoundBuf(s.txBuf, total)
	tx = s.txBuf
	s.Reader.CarrierEnvelopeInto(tx)
	s.gammaBuf = growRoundBuf(s.gammaBuf, total)
	gamma = s.gammaBuf
	for i := range gamma {
		gamma[i] = 0
	}
	for i, g := range gammaBits {
		gamma[pad+i] = complex(s.deltaG*g, 0)
	}
	return tx, gamma, pad
}

// nodeReceive passes a downlink envelope through the channel and decodes
// it as the node's receiver does: nChips OOK chips, then the frame. A nil
// frame means the frame was corrupted in flight and the node never heard
// it. stage times the channel pass (nil records nothing).
func (s *System) nodeReceive(w []complex128, nChips int, stage *telemetry.Histogram) (*link.Frame, error) {
	sp := telemetry.StartSpan(stage)
	s.dlBuf = growRoundBuf(s.dlBuf, len(w))
	atNode := s.Link.DownlinkInto(s.dlBuf, w)
	sp.End()
	chips, err := s.ook.DemodChips(atNode, 0, nChips)
	if err != nil {
		return nil, fmt.Errorf("core: node downlink demod: %w", err)
	}
	f, _, err := s.cfg.Reader.DownlinkCodec.DecodeFrame(chips)
	if err != nil {
		return nil, nil
	}
	return f, nil
}

// NewSystem validates and assembles a deployment.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Env == nil || cfg.Design == nil {
		return nil, fmt.Errorf("core: system needs environment and design")
	}
	if cfg.Range <= 0 {
		return nil, fmt.Errorf("core: range %.3g m must be positive", cfg.Range)
	}
	if cfg.Reader.PHY.SampleRate == 0 {
		cfg.Reader = reader.DefaultConfig()
	}
	// Default to staggered depths: placing both ends at exactly the same
	// depth in a symmetric waveguide pairs the surface and bottom images
	// at identical delays and systematically cancels the link (a real
	// deployment hazard worth avoiding by default).
	if cfg.ReaderDepth == 0 {
		cfg.ReaderDepth = 0.4 * cfg.Env.Depth
	}
	if cfg.NodeDepth == 0 {
		cfg.NodeDepth = 0.6 * cfg.Env.Depth
	}
	if cfg.SelfInterferenceDB == 0 {
		cfg.SelfInterferenceDB = -30
	}
	r, err := reader.New(cfg.Reader)
	if err != nil {
		return nil, err
	}
	// Deployed nodes float the reservoir from a small primary cell: beyond
	// ~100 m the harvested carrier covers only a fraction of even the
	// sleep current (the node package quantifies the crossover).
	harv := node.DefaultHarvester()
	harv.BatteryBacked = true
	nodePHY := cfg.Reader.PHY
	nodePHY.ClockPPM = 0 // a nominal oscillator; fault clock steps retune it
	// Payload format: the v1 single-reading sensor by default (keeping
	// committed seeded transcripts bit-identical), the packed multi-reading
	// sensor when a batch is requested. Both derive their sample stream
	// from the same seed, so batch k reads the same measurements as k
	// consecutive v1 polls.
	var sensor node.Sensor
	payloadLen := node.PayloadSize
	if cfg.SensorBatch > 1 {
		ps, err := node.NewPackedEnvSensor(cfg.Env.Temperature, cfg.NodeDepth, cfg.Seed+1, cfg.SensorBatch)
		if err != nil {
			return nil, err
		}
		sensor = ps
		payloadLen = ps.PayloadSize()
	} else {
		sensor = node.NewEnvSensor(cfg.Env.Temperature, cfg.NodeDepth, cfg.Seed+1)
	}
	n, err := node.New(node.Config{
		Addr:    cfg.NodeAddr,
		Codec:   cfg.Reader.UplinkCodec,
		PHY:     nodePHY,
		Harvest: harv,
		Sensor:  sensor,
	})
	if err != nil {
		return nil, err
	}
	s := &System{Reader: r, Node: n, cfg: cfg, payloadLen: payloadLen,
		sway: rand.New(rand.NewSource(cfg.Seed ^ 0x5f3759df))}
	s.ook, err = phy.NewOOKDemodulator(cfg.Reader.PHY)
	if err != nil {
		return nil, err
	}
	if err := s.rebuildLink(); err != nil {
		return nil, err
	}
	s.refreshNodeGain()
	s.deltaG = 2 * cfg.Design.ModulationDepth(DefaultCarrierHz)
	return s, nil
}

// WakeNode charges the node from the carrier for the given duration: the
// deployment phase before the first poll.
func (s *System) WakeNode(seconds float64) {
	tl := s.cfg.Env.TransmissionLoss(DefaultCarrierHz, s.cfg.Range)
	pPa := math.Pow(10, (DefaultSourceLevelDB-tl)/20) * 1e-6
	rhoC := ocean.WaterDensity * s.cfg.Env.MeanSoundSpeed()
	s.Node.Harvest(pPa, rhoC, seconds)
}

// Poll is one waveform poll as every tier defines it: a 30 s carrier wake,
// then RunRound. The fleet, the calibrator, the hero checker and X3 all
// poll through it, so the calibration table and the tiers it feeds share
// one definition of a poll.
func (s *System) Poll() (RoundReport, error) {
	s.WakeNode(30)
	return s.RunRound()
}

// RoundReport describes one query-response round.
type RoundReport struct {
	Rx         reader.RxReport
	QueryOK    bool // node decoded the downlink query
	NodeSilent bool // node declined to answer (energy, address)
	PayloadOK  bool // payload parses as a sensor reading
	ToneSNREst float64
}

// SNRdB is the round's tone SNR estimate in dB, or 0 when the estimate is
// not positive.
func (r *RoundReport) SNRdB() float64 {
	if r.ToneSNREst > 0 {
		return 10 * math.Log10(r.ToneSNREst)
	}
	return 0
}

// RunRound executes a full query-response exchange at waveform level and
// returns what happened at each stage.
func (s *System) RunRound() (RoundReport, error) {
	var rep RoundReport
	s.rounds.Inc()

	// Fault injection: compute and apply this round's plan. A nil engine
	// skips the block entirely, leaving seeded runs bit-identical to a
	// build without fault support.
	var plan faults.RoundPlan
	if s.chaos != nil {
		plan = s.chaos.Plan(s.chaosRound)
		s.chaosRound++
		if err := s.applyFaultPlan(&plan); err != nil {
			return rep, err
		}
	}

	// Mooring sway between rounds: refresh the multipath geometry.
	if err := s.rebuildLink(); err != nil {
		return rep, err
	}

	// Downlink: query through the channel, node-side OOK decode.
	sp := telemetry.StartSpan(s.stModulate)
	qw, _, err := s.Reader.QueryWaveformInto(s.queryBuf, s.cfg.NodeAddr, s.querySeq)
	sp.End()
	if err != nil {
		return rep, err
	}
	s.queryBuf = qw
	s.querySeq++
	qf, err := s.nodeReceive(qw, s.cfg.Reader.DownlinkCodec.ChipLength(0), s.stChannel)
	if err != nil {
		return rep, err
	}
	if qf == nil { // the node never heard the query
		return rep, nil
	}
	rep.QueryOK = true

	// Node responds with its reflection waveform.
	sp = telemetry.StartSpan(s.stNode)
	gammaBits, err := s.Node.HandleQuery(qf)
	sp.End()
	if err != nil {
		return rep, err
	}
	if gammaBits == nil {
		rep.NodeSilent = true
		return rep, nil
	}

	// Round trip.
	tx, gamma, _ := s.uplinkWaveforms(gammaBits)
	sp = telemetry.StartSpan(s.stChannel)
	s.captureBuf = growRoundBuf(s.captureBuf, len(tx))
	capture, err := s.Link.RoundTripInto(s.captureBuf, tx, gamma, s.effectiveGain())
	sp.End()
	if err != nil {
		return rep, err
	}
	if len(plan.Bursts) > 0 {
		s.injectBursts(capture, &plan)
	}
	sp = telemetry.StartSpan(s.stDecode)
	rep.Rx = s.Reader.Decode(capture, tx, s.payloadLen)
	sp.End()
	rep.ToneSNREst = rep.Rx.SNREstimate
	if rep.Rx.OK() {
		// Format-agnostic validation: packed payloads and the v1 layout
		// both parse through the dispatcher, into a reused buffer.
		s.readingsBuf, rep.PayloadOK = node.AppendDecodedReadings(s.readingsBuf[:0], rep.Rx.Frame.Payload)
	}
	return rep, nil
}

// RecordRound runs one query-response exchange and returns the reader's
// raw hydrophone capture — the export hook for external waveform analysis
// (see dsp.WriteCapture and cmd/vabscan -capture).
func (s *System) RecordRound() ([]complex128, error) {
	if err := s.rebuildLink(); err != nil {
		return nil, err
	}
	gammaBits, err := s.Node.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: s.cfg.NodeAddr})
	if err != nil {
		return nil, err
	}
	if gammaBits == nil {
		return nil, fmt.Errorf("core: node silent; WakeNode first")
	}
	tx, gamma, _ := s.uplinkWaveforms(gammaBits)
	return s.Link.RoundTrip(tx, gamma, s.nodeGain)
}

// RunCommandRound sends a downlink command frame through the channel and,
// when the command elicits an acknowledgement, runs the backscatter uplink
// and decodes it. It returns the reader's view: acked (an ack frame echoing
// the command's opcode recovered), not acked (command or ack lost, or the
// node ignored it or was muted — the expected outcome for CmdMute), or an
// error for transport problems.
func (s *System) RunCommandRound(payload []byte) (acked bool, err error) {
	cfg := s.cfg.Reader
	if err := s.rebuildLink(); err != nil {
		return false, err
	}
	// Downlink command frame as OOK.
	f := &link.Frame{Type: link.FrameCmd, Addr: s.cfg.NodeAddr, Seq: s.querySeq, Payload: payload}
	s.querySeq++
	chips, err := cfg.DownlinkCodec.EncodeFrame(f)
	if err != nil {
		return false, err
	}
	mod, err := phy.NewModulator(cfg.PHY)
	if err != nil {
		return false, err
	}
	w, err := mod.OOKModulate(chips, 1.0)
	if err != nil {
		return false, err
	}
	amp := s.Reader.SourceAmplitude()
	for i := range w {
		w[i] *= complex(amp, 0)
	}
	qf, err := s.nodeReceive(w, len(chips), nil)
	if err != nil || qf == nil {
		return false, err // nil frame: command lost in flight
	}
	gammaBits, err := s.Node.HandleCommand(qf)
	if err != nil {
		return false, fmt.Errorf("core: node command: %w", err)
	}
	if gammaBits == nil {
		return false, nil
	}
	// Uplink ack.
	tx, gamma, _ := s.uplinkWaveforms(gammaBits)
	s.captureBuf = growRoundBuf(s.captureBuf, len(tx))
	capture, err := s.Link.RoundTripInto(s.captureBuf, tx, gamma, s.nodeGain)
	if err != nil {
		return false, err
	}
	rep := s.Reader.Decode(capture, tx, 1) // ack payload: the echoed opcode
	acked = rep.OK() && rep.Frame.Type == link.FrameAck && bytes.Equal(rep.Frame.Payload, payload[:1])
	return acked, nil
}

// RangingReport is the outcome of a time-of-flight ranging round.
type RangingReport struct {
	Rx             reader.RxReport
	EstimatedRange float64 // m, one-way
	TrueRange      float64 // m, the (sway-jittered) geometry ground truth
}

// RunRangingRound performs a query-response exchange with absolute
// propagation delay preserved, so the reader can estimate the node's range
// from the burst's time of flight — the localization primitive a
// retrodirective node enables for free (it answers from any orientation
// with no settling or steering delay). The exchange reuses the data path:
// the same frame, FEC and demodulation; only the capture timeline differs.
func (s *System) RunRangingRound() (RangingReport, error) {
	var rep RangingReport
	if err := s.rebuildLink(); err != nil {
		return rep, err
	}
	// True (jittered) one-way range from the link's bulk delay.
	rep.TrueRange = s.Link.BulkDelaySeconds() / 2 * s.cfg.Env.MeanSoundSpeed()

	gammaBits, err := s.Node.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: s.cfg.NodeAddr})
	if err != nil {
		return rep, err
	}
	if gammaBits == nil {
		return rep, fmt.Errorf("core: node silent during ranging")
	}
	tx, gamma, pad := s.uplinkWaveforms(gammaBits)
	capture, err := s.Link.RoundTripAbsolute(tx, gamma, s.nodeGain)
	if err != nil {
		return rep, err
	}
	// Extend the canceller reference over the longer capture.
	txRef := make([]complex128, len(capture))
	copy(txRef, tx)
	rep.Rx = s.Reader.Decode(capture, txRef, s.payloadLen)
	if rep.Rx.OK() {
		rep.EstimatedRange = s.Reader.EstimateRange(rep.Rx.AcqStart, pad, s.cfg.Env.MeanSoundSpeed())
	}
	return rep, nil
}

// PredictedBudget returns the analytic budget matching this system's
// geometry, for cross-validation of the two fidelity tiers.
func (s *System) PredictedBudget() *LinkBudget {
	b := NewLinkBudget(s.cfg.Env, s.cfg.Design)
	b.ReaderDepth = s.cfg.ReaderDepth
	b.NodeDepth = s.cfg.NodeDepth
	b.Orientation = s.cfg.Orientation
	b.ChipRate = s.cfg.Reader.PHY.ChipRate
	if !s.cfg.Reader.UseDiversity {
		b.DiversityGainDB = 0
		b.DiversityBranches = 1
	}
	return b
}
