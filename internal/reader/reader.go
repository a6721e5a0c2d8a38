// Package reader implements the VAB interrogator: a projector that
// transmits the carrier and downlink commands, and a hydrophone receive
// chain that cancels self-interference, acquires backscatter bursts,
// demodulates subcarrier FSK and decodes link-layer frames.
package reader

import (
	"errors"
	"fmt"
	"math"

	"vab/internal/dsp"
	"vab/internal/link"
	"vab/internal/phy"
	"vab/internal/telemetry"
)

// Config assembles a reader.
type Config struct {
	PHY phy.Params
	// UplinkCodec decodes node responses (must match the nodes).
	UplinkCodec link.Codec
	// DownlinkCodec frames queries and commands. Downlink uses Manchester
	// without FEC by default: the node's comparator-based receiver decodes
	// it with trivial hardware.
	DownlinkCodec link.Codec

	// SourceLevelDB is the projector source level in dB re 1 µPa @ 1 m.
	SourceLevelDB float64
	// AcquireThreshold is the minimum normalized correlation for declaring
	// a burst (0…1).
	AcquireThreshold float64
	// UseDiversity lets acquisition-reported multipath peaks contribute to
	// chip decisions.
	UseDiversity bool
	// UseEqualizer enables the two-pass decision-feedback equalizer, which
	// cancels chip-scale late echoes (severe ISI regimes such as
	// mid-column coastal geometries). Costs a second demodulation pass.
	UseEqualizer bool

	// Reacquire enables burst reacquisition: when acquisition fails at
	// AcquireThreshold, the threshold steps down by ReacquireStep for up
	// to ReacquireMax extra attempts, never below ReacquireFloor. An
	// impulse-masked or shadow-faded preamble that correlates weakly but
	// genuinely is thereby recovered instead of discarded; the floor
	// bounds the false-acquisition risk. Off (the default) preserves the
	// historical single-attempt behavior bit for bit.
	Reacquire bool
	// ReacquireMax bounds the extra acquisition attempts (0 → 2).
	ReacquireMax int
	// ReacquireStep is the per-attempt threshold decrement (0 → 0.05).
	ReacquireStep float64
	// ReacquireFloor is the lowest threshold tried (0 → 0.08).
	ReacquireFloor float64
}

// reacquire resolves the reacquisition policy's defaults.
func (c *Config) reacquire() (max int, step, floor float64) {
	max, step, floor = c.ReacquireMax, c.ReacquireStep, c.ReacquireFloor
	if max <= 0 {
		max = 2
	}
	if step <= 0 {
		step = 0.05
	}
	if floor <= 0 {
		floor = 0.08
	}
	return max, step, floor
}

// DefaultConfig returns the reader used by the end-to-end experiments:
// 180 dB source level (a small projector), canceller and diversity on.
func DefaultConfig() Config {
	return Config{
		PHY:              phy.DefaultParams(),
		UplinkCodec:      link.DefaultCodec(),
		DownlinkCodec:    link.Codec{Code: link.Manchester},
		SourceLevelDB:    180,
		AcquireThreshold: 0.22,
		UseDiversity:     true,
	}
}

// Reader is the interrogator. Not safe for concurrent use.
type Reader struct {
	cfg   Config
	mod   *phy.Modulator
	demod *phy.Demodulator
	canc  *phy.AdaptiveCanceller
	met   rdMetrics

	// cancBuf holds Decode's working copy of the capture when there is a
	// transmit reference to cancel (Decode must not mutate the caller's capture
	// before cancellation). Reused across rounds.
	cancBuf []complex128
	// softBuf holds Decode's soft chips, which never leave Decode.
	softBuf []phy.SoftChip
}

// rdMetrics carries the receive-chain instrumentation. The zero value is
// the noop default; counters are shared when several readers (a fleet)
// instrument against one registry, aggregating across nodes.
type rdMetrics struct {
	acquires     *telemetry.Counter
	acquireFail  *telemetry.Counter
	demodErrors  *telemetry.Counter
	decodeErrors *telemetry.Counter
	frames       *telemetry.Counter
	corrected    *telemetry.Counter
	reacquires   *telemetry.Counter
	reacquireOK  *telemetry.Counter
	snrDB        *telemetry.Histogram
	// Stage timers (vab_reader_stage_seconds{stage=…}), resolved once by
	// Instrument so a traced stage costs two clock reads and an Observe.
	stCancel, stAcquire, stReacquire, stDemod, stDecode *telemetry.Histogram
}

// Instrument registers receive-chain metrics in reg and starts recording.
// A nil registry leaves the reader uninstrumented (every recording is a
// free no-op). Call before Decode; the reader itself is not safe for
// concurrent use, but the metrics are, so fleet-wide aggregation works.
func (r *Reader) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram(telemetry.Label("vab_reader_stage_seconds", "stage", name),
			"Receive-pipeline stage wall time in seconds.", nil)
	}
	r.met = rdMetrics{
		acquires: reg.Counter("vab_reader_acquire_total",
			"Burst acquisition attempts (one per capture decoded)."),
		acquireFail: reg.Counter("vab_reader_acquire_failures_total",
			"Captures in which no backscatter burst was acquired."),
		demodErrors: reg.Counter("vab_reader_demod_errors_total",
			"Captures that acquired but failed chip demodulation."),
		decodeErrors: reg.Counter("vab_reader_decode_errors_total",
			"Captures that demodulated but failed frame decoding (FEC/CRC)."),
		frames: reg.Counter("vab_reader_frames_total",
			"Frames recovered end to end."),
		corrected: reg.Counter("vab_reader_fec_corrected_bits_total",
			"Bits repaired by the FEC across recovered frames."),
		reacquires: reg.Counter("vab_reader_reacquire_attempts_total",
			"Extra acquisition attempts at stepped-down thresholds."),
		reacquireOK: reg.Counter("vab_reader_reacquire_successes_total",
			"Bursts acquired only after threshold stepping."),
		snrDB: reg.Histogram("vab_reader_snr_db",
			"Per-frame tone SNR estimate in dB.",
			telemetry.LinearBuckets(-10, 2, 25)),
		stCancel:    stage("cancel"),
		stAcquire:   stage("acquire"),
		stReacquire: stage("reacquire"),
		stDemod:     stage("demod"),
		stDecode:    stage("decode"),
	}
}

// New validates the configuration and builds a reader.
func New(cfg Config) (*Reader, error) {
	if cfg.SourceLevelDB < 100 || cfg.SourceLevelDB > 230 {
		return nil, fmt.Errorf("reader: source level %.1f dB re µPa implausible", cfg.SourceLevelDB)
	}
	if cfg.AcquireThreshold <= 0 || cfg.AcquireThreshold >= 1 {
		return nil, fmt.Errorf("reader: acquire threshold %.3g outside (0,1)", cfg.AcquireThreshold)
	}
	mod, err := phy.NewModulator(cfg.PHY)
	if err != nil {
		return nil, err
	}
	demod, err := phy.NewDemodulator(cfg.PHY)
	if err != nil {
		return nil, err
	}
	return &Reader{cfg: cfg, mod: mod, demod: demod, canc: phy.NewAdaptiveCanceller(0.05)}, nil
}

// Config returns the reader configuration.
func (r *Reader) Config() Config { return r.cfg }

// SourceAmplitude returns the transmit envelope magnitude in µPa (re 1 m).
func (r *Reader) SourceAmplitude() float64 {
	return math.Pow(10, r.cfg.SourceLevelDB/20)
}

// CarrierEnvelope returns n samples of the interrogation carrier at source
// amplitude.
func (r *Reader) CarrierEnvelope(n int) []complex128 {
	x := make([]complex128, n)
	r.CarrierEnvelopeInto(x)
	return x
}

// CarrierEnvelopeInto fills dst with the interrogation carrier at source
// amplitude: the allocation-free form the round pipeline uses on its
// reused transmit buffer.
func (r *Reader) CarrierEnvelopeInto(dst []complex128) {
	amp := complex(r.SourceAmplitude(), 0)
	for i := range dst {
		dst[i] = amp
	}
}

// QueryWaveform encodes a query for addr as a downlink OOK envelope at
// source amplitude, returning the waveform and the frame it carries.
func (r *Reader) QueryWaveform(addr byte, seq byte) ([]complex128, *link.Frame, error) {
	return r.QueryWaveformInto(nil, addr, seq)
}

// QueryWaveformInto is QueryWaveform writing the envelope into dst, which
// it grows as needed and returns resliced to the envelope length: the
// round pipeline's reused query buffer.
func (r *Reader) QueryWaveformInto(dst []complex128, addr byte, seq byte) ([]complex128, *link.Frame, error) {
	f := &link.Frame{Type: link.FrameQuery, Addr: addr, Seq: seq}
	chips, err := r.cfg.DownlinkCodec.EncodeFrame(f)
	if err != nil {
		return nil, nil, fmt.Errorf("reader: encode query: %w", err)
	}
	w, err := r.mod.OOKModulateInto(dst, chips, 1.0)
	if err != nil {
		return nil, nil, fmt.Errorf("reader: modulate query: %w", err)
	}
	dsp.Scale(w, r.SourceAmplitude())
	return w, f, nil
}

// RxReport describes one decode attempt.
type RxReport struct {
	Frame       *link.Frame // nil on failure
	Err         error       // why decoding failed (nil on success)
	AcqMetric   float64     // normalized acquisition correlation
	AcqStart    int         // sample index of the acquired burst (time-of-flight input)
	SNREstimate float64     // linear per-chip tone SNR estimate
	MeanMargin  float64     // average soft decision margin
	Corrected   int         // FEC corrections
}

// OK reports whether a frame was recovered.
func (rep *RxReport) OK() bool { return rep.Frame != nil && rep.Err == nil }

// ErrNoBurst is wrapped in RxReport.Err when acquisition fails.
var ErrNoBurst = errors.New("reader: no burst acquired")

// EstimateRange converts a time-of-flight measurement into a one-way range
// estimate in meters: acqStart is the acquired burst start in the capture,
// txStart the sample at which the node's response window began in the
// transmit frame, and soundSpeed the medium's sound speed. The difference
// is the round-trip flight time, so range = Δt·c/2. Resolution is one
// baseband sample (c/fs/2 ≈ 4.6 cm at the default numerology) — the
// localization primitive VAB's retrodirective architecture enables, since
// the node answers from any orientation without steering delay.
func (r *Reader) EstimateRange(acqStart, txStart int, soundSpeed float64) float64 {
	dt := float64(acqStart-txStart) / r.cfg.PHY.SampleRate
	return dt * soundSpeed / 2
}

// Decode runs the full receive pipeline on a raw hydrophone capture.
// txRef is the reader's own transmit envelope (for the canceller; may be
// nil when the projector was silent). payloadLen is the expected response
// payload size in bytes.
func (r *Reader) Decode(capture, txRef []complex128, payloadLen int) RxReport {
	var rep RxReport
	y := capture
	if txRef != nil && len(txRef) == len(y) {
		sp := telemetry.StartSpan(r.met.stCancel)
		r.canc.Reset()
		if cap(r.cancBuf) < len(y) {
			r.cancBuf = make([]complex128, len(y))
		}
		buf := r.cancBuf[:len(y)]
		copy(buf, y)
		y = buf
		r.canc.Prime(y, txRef)
		y = r.canc.Process(y, txRef)
		sp.End()
	}
	y = r.demod.Suppress(y)
	r.met.acquires.Inc()
	sp := telemetry.StartSpan(r.met.stAcquire)
	acq, err := r.demod.Locate(y)
	located := err == nil
	if located {
		err = acq.Detect(r.cfg.AcquireThreshold)
	}
	sp.End()
	if err != nil && r.cfg.Reacquire {
		// Recovery: step the threshold down and retry, bounded. A burst
		// whose preamble correlation was dented by an impulse train or a
		// shadowing fade often still peaks above a relaxed threshold. The
		// capture is located once; each attempt only re-tests its peak.
		max, step, floor := r.cfg.reacquire()
		thr := r.cfg.AcquireThreshold
		for attempt := 0; attempt < max && err != nil; attempt++ {
			thr -= step
			if thr < floor {
				thr = floor
			}
			r.met.reacquires.Inc()
			sp = telemetry.StartSpan(r.met.stReacquire)
			if located {
				err = acq.Detect(thr)
			}
			sp.End()
			if thr == floor {
				break
			}
		}
		if err == nil {
			r.met.reacquireOK.Inc()
		}
	}
	if err != nil {
		r.met.acquireFail.Inc()
		rep.Err = fmt.Errorf("%w: %v", ErrNoBurst, err)
		return rep
	}
	rep.AcqMetric = acq.Metric
	rep.AcqStart = acq.Start
	if !r.cfg.UseDiversity {
		acq.Peaks = nil
	}
	nChips := r.cfg.UplinkCodec.ChipLength(payloadLen)
	probe := nChips
	if probe > 24 {
		probe = 24
	}
	acq = r.demod.RefineTiming(y, acq, probe)
	var soft []phy.SoftChip
	sp = telemetry.StartSpan(r.met.stDemod)
	if r.cfg.UseEqualizer {
		soft, _, err = r.demod.EqualizeAndDemod(y, acq, nChips, 8)
	} else {
		soft, err = r.demod.DemodChipsInto(r.softBuf, y, acq, nChips)
		if err == nil {
			r.softBuf = soft
		}
	}
	sp.End()
	if err != nil {
		r.met.demodErrors.Inc()
		rep.Err = fmt.Errorf("reader: demod: %w", err)
		return rep
	}
	rep.SNREstimate = phy.EstimateSNR(soft)
	rep.MeanMargin = phy.MeanMargin(soft)
	sp = telemetry.StartSpan(r.met.stDecode)
	frame, stats, err := r.cfg.UplinkCodec.DecodeFrame(phy.HardChips(soft))
	sp.End()
	rep.Corrected = stats.CorrectedBits
	if err != nil {
		r.met.decodeErrors.Inc()
		rep.Err = fmt.Errorf("reader: frame decode: %w", err)
		return rep
	}
	rep.Frame = frame
	r.met.frames.Inc()
	r.met.corrected.Add(int64(stats.CorrectedBits))
	if rep.SNREstimate > 0 {
		r.met.snrDB.Observe(10 * math.Log10(rep.SNREstimate))
	}
	return rep
}
