// Package channel turns the ocean, piezo and vanatta models into a sampled
// complex-baseband link simulator: the waveform a VAB reader's hydrophone
// actually digitizes, including multipath, ambient noise, direct-path
// self-interference from the projector, and slow channel fading.
//
// Signals are complex envelopes around the carrier frequency. Amplitudes are
// in µPa (the underwater reference pressure), so levels compose directly
// with the dB re 1 µPa conventions of the ocean package: a projector with
// source level SL dB re 1 µPa @ 1 m transmits an envelope of magnitude
// 10^(SL/20).
//
// # Steady-state allocation discipline
//
// The round pipeline is built to allocate nothing once warmed up. Every
// waveform entry point has an *Into form (DownlinkInto, UplinkInto,
// RoundTripInto) writing into caller buffers; internal scratch lives in a
// per-Link workspace that grows to the working frame size and is then
// reused; and Rebuild re-derives a swayed geometry in place instead of
// constructing a new Link, reusing the arrival, tap and filter storage.
// The allocating forms (RoundTrip, New) remain as conveniences and
// delegate to the *Into/Rebuild machinery, so both paths compute
// bit-identical waveforms.
package channel

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vab/internal/dsp"
	"vab/internal/ocean"
)

// Tap is one arrival of the tapped-delay-line channel in sample units.
type Tap struct {
	DelaySamples float64
	Gain         complex128
}

// Config describes one reader↔node acoustic link.
type Config struct {
	Env        *ocean.Environment
	CarrierHz  float64
	SampleRate float64 // baseband sample rate, Hz

	ReaderDepth float64 // m
	NodeDepth   float64 // m
	Range       float64 // horizontal range, m

	// SelfInterferenceDB sets the direct projector→hydrophone leakage level
	// relative to the source level at 1 m (negative number; typical reader
	// assemblies achieve −20…−40 dB of acoustic isolation).
	SelfInterferenceDB float64

	// DisableNoise turns off ambient noise injection (unit tests).
	DisableNoise bool
	// ColoredNoise shapes the ambient noise to the Wenz spectrum across
	// the baseband bandwidth instead of injecting it white (same total
	// power). The Wenz PSD falls ~20 dB/decade through the VAB band, so
	// the noise under the lower subcarrier is a little heavier than under
	// the upper one — a second-order effect kept optional so the
	// calibrated anchors stay put.
	ColoredNoise bool
	// DisableFading freezes the channel in time.
	DisableFading bool

	Seed int64
}

// Geometry is the sway-jittered placement Rebuild applies to an existing
// link: the three quantities that change round to round while the
// environment, carrier and noise model stay fixed.
type Geometry struct {
	ReaderDepth float64 // m
	NodeDepth   float64 // m
	Range       float64 // horizontal range, m
}

// Link is an instantiated channel between a reader and a node position.
// It is not safe for concurrent use (it owns a random stream and scratch
// buffers).
type Link struct {
	cfg  Config
	mp   ocean.MultipathConfig
	down []Tap // reader → node
	up   []Tap // node → reader (reciprocal geometry)

	// Reused storage for incremental rebuilds.
	downArr []ocean.Arrival
	upArr   []ocean.Arrival
	tdlDown *TDL
	tdlUp   *TDL

	noiseAmp float64   // per-sample std dev of ambient noise envelope, µPa
	shaper   *dsp.CFIR // nil for white noise
	leak     complex128
	fading   *ocean.FadingProcess
	src      rand.Source
	rng      *rand.Rand

	ws workspace
}

// New builds a link. The multipath geometry is computed once; fading evolves
// per sample as waveforms pass through. For per-round geometry sway, build
// one Link and call Rebuild instead of calling New each round.
func New(cfg Config) (*Link, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("channel: environment required")
	}
	if err := cfg.Env.Validate(); err != nil {
		return nil, err
	}
	if cfg.CarrierHz <= 0 || cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("channel: carrier %.3g Hz and sample rate %.3g Hz must be positive", cfg.CarrierHz, cfg.SampleRate)
	}
	if err := validateGeometry(cfg.Env, Geometry{
		ReaderDepth: cfg.ReaderDepth, NodeDepth: cfg.NodeDepth, Range: cfg.Range,
	}); err != nil {
		return nil, err
	}
	mp := ocean.DefaultMultipathConfig(cfg.CarrierHz)
	src := rand.NewSource(cfg.Seed)
	l := &Link{cfg: cfg, mp: mp, src: src, rng: rand.New(src)}
	l.tdlDown = NewTDL(nil, false)
	l.tdlUp = NewTDL(nil, false)
	l.rebuildGeometry()

	if !cfg.DisableNoise {
		nl := cfg.Env.NoiseLevel(cfg.CarrierHz, cfg.SampleRate)
		l.noiseAmp = math.Pow(10, nl/20)
		if cfg.ColoredNoise {
			taps, err := wenzShaperTaps(cfg.Env, cfg.CarrierHz, cfg.SampleRate)
			if err != nil {
				return nil, err
			}
			l.shaper = dsp.NewCFIR(taps)
		}
	}
	if cfg.SelfInterferenceDB != 0 {
		l.leak = complex(math.Pow(10, cfg.SelfInterferenceDB/20), 0)
	}
	if !cfg.DisableFading {
		spread := cfg.Env.DopplerSpread(cfg.CarrierHz, 0)
		l.fading = ocean.NewFadingProcess(spread, cfg.SampleRate, 0.3, l.rng)
	}
	metLinkBuilds.Inc()
	return l, nil
}

func validateGeometry(env *ocean.Environment, g Geometry) error {
	if g.Range <= 0 {
		return fmt.Errorf("channel: range %.3g m must be positive", g.Range)
	}
	if g.ReaderDepth <= 0 || g.ReaderDepth > env.Depth ||
		g.NodeDepth <= 0 || g.NodeDepth > env.Depth {
		return fmt.Errorf("channel: depths (%.2f, %.2f) must lie inside the water column (0, %.2f]",
			g.ReaderDepth, g.NodeDepth, env.Depth)
	}
	return nil
}

// Rebuild re-derives the link for a new geometry and noise seed in place,
// reusing all storage: arrival and tap slices, TDL spectra, the noise
// shaper, and the fading process (whose AR(1) coefficients are geometry-
// independent) are recycled rather than reallocated. The resulting Link is
// bit-identical — same taps, same RNG stream, same waveforms — to what
// channel.New would return for the updated configuration, which
// TestRebuildMatchesFreshLink pins across swayed rounds, but rebuilding
// allocates nothing in steady state where New rebuilds everything.
func (l *Link) Rebuild(g Geometry, seed int64) error {
	if err := validateGeometry(l.cfg.Env, g); err != nil {
		return err
	}
	l.cfg.ReaderDepth, l.cfg.NodeDepth, l.cfg.Range = g.ReaderDepth, g.NodeDepth, g.Range
	l.cfg.Seed = seed
	// Reseeding the shared source puts the RNG in exactly the state a fresh
	// rand.New(rand.NewSource(seed)) would have; the fading process rides
	// the same stream, so resetting its state completes the equivalence.
	l.src.Seed(seed)
	if l.fading != nil {
		l.fading.Reset()
	}
	l.rebuildGeometry()
	metLinkRebuilds.Inc()
	return nil
}

// rebuildGeometry recomputes the geometry-dependent state — eigenray
// enumeration, tap tables and TDL engines — into the Link's reused storage.
func (l *Link) rebuildGeometry() {
	cfg := &l.cfg
	l.downArr = cfg.Env.MultipathAppend(l.downArr, ocean.Geometry{
		SourceDepth: cfg.ReaderDepth, ReceiverDepth: cfg.NodeDepth, Range: cfg.Range,
	}, l.mp)
	l.upArr = cfg.Env.MultipathAppend(l.upArr, ocean.Geometry{
		SourceDepth: cfg.NodeDepth, ReceiverDepth: cfg.ReaderDepth, Range: cfg.Range,
	}, l.mp)
	l.down = appendTaps(l.down[:0], l.downArr, cfg.SampleRate)
	l.up = appendTaps(l.up[:0], l.upArr, cfg.SampleRate)
	l.tdlDown.Rebuild(l.down)
	l.tdlUp.Rebuild(l.up)
}

func appendTaps(dst []Tap, arr []ocean.Arrival, fs float64) []Tap {
	for _, a := range arr {
		dst = append(dst, Tap{DelaySamples: a.Delay * fs, Gain: a.Gain})
	}
	return dst
}

// DownlinkInto propagates a transmitted envelope to the node, writing into
// dst, which must have the same length as tx and must not alias it. The
// node faces an enormous near-field signal compared to ambient noise, so
// no noise is added; multipath and absorption still shape the command
// waveform. It allocates nothing. The reader's carrier (every sample
// equal) takes a bit-identical shortcut, see TDL.carrierInto.
func (l *Link) DownlinkInto(dst, tx []complex128) []complex128 {
	if !l.tdlDown.carrierInto(dst, tx) {
		l.tdlDown.Apply(dst, tx)
	}
	return dst
}

// UplinkInto propagates the node's scattered envelope back to the reader,
// applying slow fading, then adds the projector's direct-path leakage
// (txLeak is the reader's own transmit envelope, nil when the projector is
// quiet) and ambient noise. It writes into dst, which must have the same
// length as scattered and must not alias scattered or txLeak. Noise
// scratch comes from the link workspace, so the steady state allocates
// nothing.
func (l *Link) UplinkInto(dst, scattered, txLeak []complex128) []complex128 {
	l.tdlUp.Apply(dst, scattered)
	if l.fading != nil {
		l.fading.Apply(dst)
	}
	if l.leak != 0 && txLeak != nil {
		n := len(dst)
		if len(txLeak) < n {
			n = len(txLeak)
		}
		for i := 0; i < n; i++ {
			dst[i] += l.leak * txLeak[i]
		}
	}
	l.addNoise(dst)
	return dst
}

// addNoise injects ambient noise (white, or Wenz-shaped when configured)
// with total in-band power matching the environment's noise level. The
// Gaussian draw lands in workspace scratch and the shaper filters it in
// place (see the dsp.CFIR.ProcessInto aliasing contract).
func (l *Link) addNoise(y []complex128) {
	if l.noiseAmp <= 0 {
		return
	}
	l.ws.noise = growBuf(l.ws.noise, len(y))
	noise := l.ws.noise
	dsp.GaussianNoiseInto(noise, l.noiseAmp*l.noiseAmp, l.rng)
	if l.shaper != nil {
		l.shaper.Reset()
		l.shaper.ProcessInto(noise, noise)
	}
	dsp.AddInto(y, noise)
}

// wenzShaperKey identifies a shaper design: the filter depends only on the
// environment's noise model, the carrier and the sample rate — never on
// link geometry — so one design serves every link (and every rebuild) in a
// simulation sweep.
type wenzShaperKey struct {
	env    ocean.Environment
	fc, fs float64
}

var wenzShaperCache sync.Map // wenzShaperKey → []complex128 (immutable taps)

// wenzShaperTaps returns the cached Wenz shaping-filter taps for the given
// environment fingerprint, designing them on first use. The cached slice is
// immutable; callers clone it into a private dsp.CFIR (whose constructor
// copies taps) so per-link filter state never aliases the cache.
func wenzShaperTaps(env *ocean.Environment, fc, fs float64) ([]complex128, error) {
	key := wenzShaperKey{env: *env, fc: fc, fs: fs}
	if v, ok := wenzShaperCache.Load(key); ok {
		metShaperHits.Inc()
		return v.([]complex128), nil
	}
	metShaperMisses.Inc()
	f, err := wenzShaper(env, fc, fs)
	if err != nil {
		return nil, err
	}
	taps := f.Taps()
	if v, raced := wenzShaperCache.LoadOrStore(key, taps); raced {
		return v.([]complex128), nil
	}
	return taps, nil
}

// wenzShaper builds the PSD-shaping filter: the baseband bin at offset f
// carries the Wenz density at fc+f, normalized to unit mean so the white
// noise amplitude calibration is preserved.
func wenzShaper(env *ocean.Environment, fc, fs float64) (*dsp.CFIR, error) {
	const bins = 256
	psd := make([]float64, bins)
	var mean float64
	for k := 0; k < bins; k++ {
		f := float64(k) * fs / bins
		if k > bins/2 {
			f -= fs
		}
		p := math.Pow(10, env.NoisePSD(fc+f)/10)
		psd[k] = p
		mean += p
	}
	mean /= bins
	for k := range psd {
		psd[k] /= mean
	}
	return dsp.NoiseShapingFIR(psd, 65, dsp.Hamming)
}

// RoundTrip runs the full backscatter path: the reader's transmit envelope
// travels to the node, is multiplied by the node's time-varying scatter
// waveform (nodeGain · γ(t), produced by the node model), and returns
// through the uplink with leakage and noise.
//
// gamma must have the same length as tx; nodeGain carries the array's
// retrodirective conversion gain at the current orientation.
func (l *Link) RoundTrip(tx, gamma []complex128, nodeGain complex128) ([]complex128, error) {
	dst := make([]complex128, len(tx))
	return l.RoundTripInto(dst, tx, gamma, nodeGain)
}

// RoundTripInto is RoundTrip writing the capture into dst, which must have
// the same length as tx and must not alias tx or gamma. The node-side
// intermediate lives in the link workspace, so a steady-state caller
// (fixed frame length round to round) triggers no allocations at all.
func (l *Link) RoundTripInto(dst, tx, gamma []complex128, nodeGain complex128) ([]complex128, error) {
	if len(gamma) != len(tx) {
		return nil, fmt.Errorf("channel: gamma length %d != tx length %d", len(gamma), len(tx))
	}
	if len(dst) != len(tx) {
		return nil, fmt.Errorf("channel: dst length %d != tx length %d", len(dst), len(tx))
	}
	l.ws.atNode = growBuf(l.ws.atNode, len(tx))
	atNode := l.ws.atNode
	l.DownlinkInto(atNode, tx)
	for i := range atNode {
		atNode[i] *= nodeGain * gamma[i]
	}
	return l.UplinkInto(dst, atNode, tx), nil
}

// BulkDelaySeconds returns the absolute earliest-arrival round-trip delay
// (down plus up), the quantity RoundTripAbsolute preserves and ranging
// measures.
func (l *Link) BulkDelaySeconds() float64 {
	min := func(taps []Tap) float64 {
		m := math.Inf(1)
		for _, t := range taps {
			if t.DelaySamples < m {
				m = t.DelaySamples
			}
		}
		if math.IsInf(m, 1) {
			return 0
		}
		return m / l.cfg.SampleRate
	}
	return min(l.down) + min(l.up)
}

// applyTDLAbs convolves x with the tapped delay line preserving absolute
// delays, into an output of the given length.
func applyTDLAbs(x []complex128, taps []Tap, outLen int) []complex128 {
	out := make([]complex128, outLen)
	for _, t := range taps {
		dsp.MixInto(out, x, int(math.Round(t.DelaySamples)), t.Gain)
	}
	return out
}

// RoundTripAbsolute is RoundTrip with propagation delay preserved: the
// returned capture is long enough to contain the burst after the full
// round-trip flight time, enabling time-of-flight ranging at the reader.
// The leakage (which arrives promptly) and noise span the whole capture.
// Unlike RoundTripInto it allocates its (variable-length) buffers per
// call: ranging rounds are rare and their capture length depends on the
// swayed geometry, so pinning them to a workspace would buy nothing.
func (l *Link) RoundTripAbsolute(tx, gamma []complex128, nodeGain complex128) ([]complex128, error) {
	if len(gamma) != len(tx) {
		return nil, fmt.Errorf("channel: gamma length %d != tx length %d", len(gamma), len(tx))
	}
	maxDelay := func(taps []Tap) int {
		m := 0.0
		for _, t := range taps {
			if t.DelaySamples > m {
				m = t.DelaySamples
			}
		}
		return int(math.Ceil(m))
	}
	if len(l.down) == 0 || len(l.up) == 0 {
		return nil, fmt.Errorf("channel: no propagation paths")
	}
	nDown := len(tx) + maxDelay(l.down) + 1
	atNode := applyTDLAbs(tx, l.down, nDown)
	// The node reacts to what it hears: its modulation waveform γ rides at
	// the downlink bulk delay. Outside γ's support the node sits in its
	// quiescent state — static clutter the reader's notch removes — so the
	// scattered field is zero there.
	dDown := int(math.Round(l.down[0].DelaySamples))
	for i := range atNode {
		j := i - dDown
		if j >= 0 && j < len(gamma) {
			atNode[i] *= nodeGain * gamma[j]
		} else {
			atNode[i] = 0
		}
	}
	nUp := nDown + maxDelay(l.up) + 1
	y := applyTDLAbs(atNode, l.up, nUp)
	if l.fading != nil {
		l.fading.Apply(y)
	}
	if l.leak != 0 {
		n := len(y)
		if len(tx) < n {
			n = len(tx)
		}
		for i := 0; i < n; i++ {
			y[i] += l.leak * tx[i]
		}
	}
	l.addNoise(y)
	return y, nil
}

// InjectBurst adds a high-amplitude noise burst to y in place, starting at
// sample start for length n, at powerDB above the ambient floor: the
// fault-injection hook the chaos scenarios drive (passing boats, snapping
// shrimp). The burst window is clamped against the slice bounds before any
// indexing — a scenario whose drawn offsets overhang a short capture
// buffer perturbs only the overlap — and non-positive lengths are
// rejected.
func (l *Link) InjectBurst(y []complex128, start, n int, powerDB float64) {
	if n <= 0 || start >= len(y) {
		return
	}
	if start < 0 {
		// The portion before sample 0 is rejected rather than indexed;
		// guard the addition so a pathological n cannot wrap around.
		if n+start <= 0 {
			return
		}
		n += start
		start = 0
	}
	if n > len(y)-start {
		n = len(y) - start
	}
	amp := l.noiseAmp
	if amp == 0 {
		amp = 1
	}
	amp *= math.Pow(10, powerDB/20)
	for i := start; i < start+n; i++ {
		y[i] += complex(l.rng.NormFloat64()*amp/math.Sqrt2, l.rng.NormFloat64()*amp/math.Sqrt2)
	}
}
