package benchmark

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"vab/internal/channel"
	"vab/internal/core"
	"vab/internal/dsp"
	"vab/internal/faults"
	"vab/internal/gateway"
	"vab/internal/mac"
	"vab/internal/node"
	"vab/internal/ocean"
	"vab/internal/phy"
	"vab/internal/reader"
	"vab/internal/telemetry"
)

// ladder is the per-layer half of a traced run: one canonical timed call
// per layer, from DSP kernels up to the gateway, each recorded as the
// median of k fixed-length samples with their min/max. Every rung is a
// public call made from outside the program. The ladder does not depend on
// the workload, yet every traced run carries every per-layer metric, so
// each traced run repeats it; its samples are short (about 9 s in all) to
// keep a traced run within about 20 s.
type ladder struct {
	o      *Options
	res    *Result
	sample time.Duration
	// evictions counts slow-subscriber drops over the gateway rungs.
	evictions int64
}

// rung is one ladder step: it records one or more PerLayer metrics.
type rung struct {
	layer string
	run   func(l *ladder) error
}

// rungs lists the ladder, bottom layer first.
var rungs = []rung{
	{"dsp", dspRungs},
	{"channel", channelRungs},
	{"reader", readerRungs},
	{"core", coreRungs},
	{"mac", macRungs},
	{"linksim", linksimRungs},
	{"gateway", gatewayRungs},
}

const ladderSamples = 5

func runLadder(o *Options, res *Result) error {
	l := &ladder{o: o, res: res, sample: o.LadderSample}
	if l.sample <= 0 {
		l.sample = 20 * time.Millisecond
	}
	for _, r := range rungs {
		start := time.Now()
		if err := r.run(l); err != nil {
			return fmt.Errorf("ladder %s: %w", r.layer, err)
		}
		runtime.GC()
		o.logf("ladder %s: %.1f s", r.layer, time.Since(start).Seconds())
	}
	l.put("gateway.evictions", constant(float64(l.evictions)))
	return nil
}

func (l *ladder) put(name string, s Summary) {
	if _, ok := lookupMetric(name); !ok {
		panic("ladder records undeclared metric " + name)
	}
	l.res.put(name, s)
	l.o.logf("  %-36s %12.4g %-5s [%.4g, %.4g] n=%d", name, s.Value, unitOf(name), s.Lo, s.Hi, s.N)
}

func constant(v float64) Summary { return Summary{Value: v, Lo: v, Hi: v, N: 1} }

// unitScale converts seconds to a time unit.
func unitScale(unit string) float64 {
	switch unit {
	case "ns":
		return 1e9
	case "us":
		return 1e6
	case "ms":
		return 1e3
	}
	return 1
}

// sampleOp returns k samples of op's cost per item in seconds. Each
// sample runs op for the sample length (at least once) after one warm-up
// call that builds plans and scratch space.
func (l *ladder) sampleOp(items float64, op func() error) ([]float64, error) {
	if err := op(); err != nil {
		return nil, err
	}
	xs := make([]float64, 0, ladderSamples)
	for s := 0; s < ladderSamples; s++ {
		n := 0
		start := time.Now()
		for n == 0 || time.Since(start) < l.sample {
			if err := op(); err != nil {
				return nil, err
			}
			n++
		}
		xs = append(xs, time.Since(start).Seconds()/float64(n)/items)
	}
	return xs, nil
}

// timeOp records metric name as op's cost per item in the metric's unit.
func (l *ladder) timeOp(name string, items float64, op func() error) (Summary, error) {
	xs, err := l.sampleOp(items, op)
	if err != nil {
		return Summary{}, fmt.Errorf("%s: %w", name, err)
	}
	scale := unitScale(unitOf(name))
	for i := range xs {
		xs[i] *= scale
	}
	s := Summarize(xs)
	l.put(name, s)
	return s, nil
}

func nop(f func()) func() error { return func() error { f(); return nil } }

func dspRungs(l *ladder) error {
	rng := rand.New(rand.NewSource(l.o.Seed))
	x1024 := dsp.GaussianNoise(make([]complex128, 1024), 1, rng)
	x1000 := dsp.GaussianNoise(make([]complex128, 1000), 1, rng)
	real1024 := make([]float64, 1024)
	for i := range real1024 {
		real1024[i] = rng.NormFloat64()
	}
	dst := make([]complex128, 1024)
	convDst := make([]complex128, 1024+64-1)
	for _, r := range []struct {
		name string
		op   func()
	}{
		{"dsp.fft1024_ns", func() { dsp.FFTInto(dst, x1024) }},
		{"dsp.fft_bluestein1000_ns", func() { dsp.FFTInto(dst[:1000], x1000) }},
		{"dsp.rfft1024_ns", func() { dsp.RFFTInto(dst, real1024) }},
		{"dsp.convolve_1024x64_ns", func() { dsp.ConvolveInto(convDst, x1024, x1024[:64]) }},
	} {
		if _, err := l.timeOp(r.name, 1, nop(r.op)); err != nil {
			return err
		}
	}
	return nil
}

// channelLink is the steady-state link a round pipeline drives: river,
// 100 m, colored noise, reused buffers, 16k-sample waveforms.
func channelLink(seed int64) (*channel.Link, error) {
	return channel.New(channel.Config{
		Env: ocean.CharlesRiver(), CarrierHz: core.DefaultCarrierHz, SampleRate: 16e3,
		ReaderDepth: 1.6, NodeDepth: 2.4, Range: 100,
		SelfInterferenceDB: -30, ColoredNoise: true, Seed: seed,
	})
}

func channelRungs(l *ladder) error {
	lnk, err := channelLink(l.o.Seed)
	if err != nil {
		return err
	}
	const n = 16384
	tx := make([]complex128, n)
	gamma := make([]complex128, n)
	dst := make([]complex128, n)
	for i := range tx {
		tx[i] = complex(1e9, 0)
		gamma[i] = complex(float64(i%2), 0)
	}
	rdr, err := reader.New(reader.DefaultConfig())
	if err != nil {
		return err
	}
	query, _, err := rdr.QueryWaveform(1, 0)
	if err != nil {
		return err
	}
	dl := make([]complex128, len(query))
	geom := channel.Geometry{ReaderDepth: 1.61, NodeDepth: 2.39, Range: 100.02}
	seed := l.o.Seed
	tdlRng := rand.New(rand.NewSource(l.o.Seed))
	taps := make([]channel.Tap, 64)
	for i := range taps {
		taps[i] = channel.Tap{DelaySamples: 500 + tdlRng.Float64()*400, Gain: complex(tdlRng.NormFloat64(), tdlRng.NormFloat64())}
	}
	tdlX := dsp.GaussianNoise(make([]complex128, n), 1, tdlRng)
	tdlTime, tdlFreq := channel.NewTDL(taps, false), channel.NewTDL(taps, true)
	for _, r := range []struct {
		name string
		op   func() error
	}{
		{"channel.uplink_noise_16k_us", nop(func() { lnk.UplinkInto(dst, tx, tx) })},
		{"channel.roundtrip_16k_us", func() error { _, err := lnk.RoundTripInto(dst, tx, gamma, complex(0.1, 0)); return err }},
		{"channel.downlink_us", nop(func() { lnk.DownlinkInto(dl, query) })},
		{"channel.rebuild_us", func() error { seed++; return lnk.Rebuild(geom, seed) }},
		{"channel.tdl_time64_us", nop(func() { tdlTime.Apply(dst, tdlX) })},
		{"channel.tdl_freq64_us", nop(func() { tdlFreq.Apply(dst, tdlX) })},
	} {
		if _, err := l.timeOp(r.name, 1, r.op); err != nil {
			return err
		}
	}
	return nil
}

// newSystem builds a waveform-tier deployment the way calibration does:
// default design, node soaked for an hour, and at intensity > 0 the chaos
// scenario scaled to it (the returned engine; nil otherwise).
func newSystem(env *ocean.Environment, rangeM, intensity float64, seed int64) (*core.System, *faults.Engine, error) {
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(core.SystemConfig{Env: env, Design: design, Range: rangeM, NodeAddr: 1, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	var eng *faults.Engine
	if intensity > 0 {
		eng, err = chaosEngine(fmt.Sprintf("chaos:%g", intensity), seed)
		if err != nil {
			return nil, nil, err
		}
		sys.SetFaultEngine(eng)
	}
	sys.WakeNode(3600)
	return sys, eng, nil
}

func chaosEngine(spec string, seed int64) (*faults.Engine, error) {
	sc, err := faults.Parse(spec, seed)
	if err != nil {
		return nil, err
	}
	return faults.NewEngine(sc)
}

func readerRungs(l *ladder) error {
	rdr, err := reader.New(reader.DefaultConfig())
	if err != nil {
		return err
	}
	var seq byte
	if _, err := l.timeOp("reader.query_us", 1, func() error {
		seq++
		_, _, err := rdr.QueryWaveform(1, seq)
		return err
	}); err != nil {
		return err
	}

	sys, _, err := newSystem(ocean.CharlesRiver(), 50, 0, l.o.Seed)
	if err != nil {
		return err
	}
	capture, err := sys.RecordRound()
	if err != nil {
		return err
	}
	txRef := sys.Reader.CarrierEnvelope(len(capture))
	if _, err := l.timeOp("reader.decode_us", 1, nop(func() { sys.Reader.Decode(capture, txRef, node.PayloadSize) })); err != nil {
		return err
	}

	// Acquisition on a synthetic burst: a 64-chip response 500 samples
	// into weak noise, after the demodulator's suppression filter.
	p := phy.DefaultParams()
	mod, err := phy.NewModulator(p)
	if err != nil {
		return err
	}
	dem, err := phy.NewDemodulator(p)
	if err != nil {
		return err
	}
	g, err := mod.GammaWaveform(make([]byte, 64))
	if err != nil {
		return err
	}
	y := dsp.GaussianNoise(make([]complex128, len(g)+2000), 0.01, rand.New(rand.NewSource(l.o.Seed)))
	for i, v := range g {
		y[500+i] += complex(0.2*v, 0)
	}
	dem.Suppress(y)
	if _, err := l.timeOp("phy.acquire_us", 1, func() error { _, err := dem.Acquire(y, 0.2); return err }); err != nil {
		return err
	}

	demod, err := nodeDemodOp(sys)
	if err != nil {
		return err
	}
	_, err = l.timeOp("phy.ook_demod_us", 1, demod)
	return err
}

// nodeDemodOp returns one node-side OOK demodulation of the query as sys's
// node receives it: the part of a round's downlink that RunRound does not
// trace as a stage.
func nodeDemodOp(sys *core.System) (func() error, error) {
	cfg := sys.Reader.Config()
	ook, err := phy.NewOOKDemodulator(cfg.PHY)
	if err != nil {
		return nil, err
	}
	query, _, err := sys.Reader.QueryWaveform(1, 0)
	if err != nil {
		return nil, err
	}
	atNode := sys.Link.DownlinkInto(make([]complex128, len(query)), query)
	nChips := cfg.DownlinkCodec.ChipLength(0)
	return func() error { _, err := ook.DemodChips(atNode, 0, nChips); return err }, nil
}

// coreRungs times whole waveform rounds at three calibration-grid points
// and accounts for each: the round's own stage spans (read from the
// system's existing stage histograms), the per-round link rebuild and the
// node's downlink demodulation, and the remainder, core.round_other_us.
func coreRungs(l *ladder) error {
	configs := []struct {
		name      string
		env       *ocean.Environment
		rangeM    float64
		intensity float64
	}{
		{"core.round_near_us", ocean.CharlesRiver(), 50, 0},
		{"core.round_far_us", ocean.CharlesRiver(), 300, 0},
		{"core.round_chaos_us", ocean.AtlanticCoastal(), 150, 1},
	}
	var rounds, decoded int
	for _, c := range configs {
		sys, eng, err := newSystem(c.env, c.rangeM, c.intensity, l.o.Seed)
		if err != nil {
			return err
		}
		reg := telemetry.NewRegistry()
		sys.Instrument(reg)
		var roundSec float64 // over exactly the rounds the stage histograms saw
		_, err = l.timeOp(c.name, 1, func() error {
			sys.WakeNode(30)
			t0 := time.Now()
			rep, err := sys.RunRound()
			roundSec += time.Since(t0).Seconds()
			rounds++
			if rep.Rx.OK() {
				decoded++
			}
			return err
		})
		if err != nil {
			return err
		}
		var stageSec float64
		var n float64
		for _, s := range reg.Snapshot() {
			switch {
			case strings.HasPrefix(s.Name, "vab_round_stage_seconds"):
				stageSec += s.Sum
			case s.Name == "vab_round_total":
				n = s.Value
			}
		}
		roundUs, stagesUs := roundSec/n*1e6, stageSec/n*1e6
		geom := channel.Geometry{ReaderDepth: 0.4 * c.env.Depth, NodeDepth: 0.6 * c.env.Depth, Range: c.rangeM}
		seed := l.o.Seed
		rebuild, err := l.sampleOp(1, func() error { seed++; return sys.Link.Rebuild(geom, seed) })
		if err != nil {
			return err
		}
		demodOp, err := nodeDemodOp(sys)
		if err != nil {
			return err
		}
		demod, err := l.sampleOp(1, demodOp)
		if err != nil {
			return err
		}
		// The chaos round also draws its fault plan.
		var planUs float64
		if eng != nil {
			i := 0
			plan, err := l.sampleOp(1, nop(func() { i++; eng.Plan(i) }))
			if err != nil {
				return err
			}
			planUs = Median(plan) * 1e6
		}
		rebuildUs, demodUs := Median(rebuild)*1e6, Median(demod)*1e6
		other := roundUs - stagesUs - rebuildUs - demodUs - planUs
		l.o.logf("  mean round %.1f us = stages %.1f + rebuild %.1f + node demod %.1f + fault plan %.1f + other %.1f (%.1f%%)",
			roundUs, stagesUs, rebuildUs, demodUs, planUs, other, 100*other/roundUs)
		if c.name == "core.round_near_us" {
			l.put("core.round_other_us", constant(other))
		}
	}
	l.put("core.round_ok_ratio", constant(float64(decoded)/float64(rounds)))
	return nil
}

// macRungs times the fold-phase transitions over a million-node column
// set: one delivered fold per node, every sixteenth a failed poll.
func macRungs(l *ladder) error {
	nodes := fleetNodes(l.o)
	cols := mac.NewNodeColumns(nodes)
	pol := mac.DefaultPollPolicy()
	cycle := 0
	_, err := l.timeOp("mac.fold_ns_per_node", float64(nodes), nop(func() {
		cycle++
		for i := 0; i < nodes; i++ {
			if i&15 == 0 {
				pol.FoldPollFailureAt(cols, i, cycle)
			} else {
				cols.FoldDeliveredAt(i, 12.5)
			}
		}
	}))
	return err
}

func linksimRungs(l *ladder) error {
	f, err := newWarmFleet(fleetNodes(l.o), l.o.Seed, runtime.NumCPU(), fleetWarmCycles)
	if err != nil {
		return err
	}
	defer f.Close()
	reg := telemetry.NewRegistry()
	f.Instrument(reg)
	var cycles, polled, delivered int64
	cycle := func() error {
		rep, err := f.RunCycle()
		cycles++
		polled += int64(rep.Polled)
		delivered += int64(rep.Delivered)
		return err
	}
	pooled, err := l.timeOp("linksim.cycle_ms", 1, cycle)
	if err != nil {
		return err
	}
	f.SetWorkers(1)
	serial, err := l.timeOp("linksim.cycle_w1_ms", 1, cycle)
	if err != nil {
		return err
	}
	l.put("linksim.pool_speedup", Summary{Value: serial.Value / pooled.Value, Lo: serial.Lo / pooled.Hi, Hi: serial.Hi / pooled.Lo, N: pooled.N})
	l.put("linksim.delivered_ratio", constant(float64(delivered)/float64(polled)))
	l.put("linksim.cache_cycle_ratio", constant(float64(reg.Counter("vab_linksim_cell_cache_cycles_total", "").Value())/float64(cycles)))

	// The ingest_bulk feed: chaos redraws severity every cycle, so no
	// cycle is served from the resolved-cell cache.
	chaosFleet, err := newWarmFleet(bulkConfig(l.o).nodes, l.o.Seed, runtime.NumCPU(), 0)
	if err != nil {
		return err
	}
	defer chaosFleet.Close()
	eng, err := chaosEngine(bulkChaos, feedFaultSeed)
	if err != nil {
		return err
	}
	chaosFleet.SetFaultEngine(eng)
	_, err = l.timeOp("linksim.uncached_cycle_ms", 1, func() error { _, err := chaosFleet.RunCycle(); return err })
	return err
}

// ladderSubs scales the gateway rungs' subscriber counts down for tests.
func (l *ladder) ladderSubs(n int) int {
	if l.o.Small {
		return min(n, 200)
	}
	return n
}

// meteredRig is a rig of counting sinks whose server counts, from before
// the first connection, the frames it wrote, the batch frames it encoded
// and the subscribers it evicted.
type meteredRig struct {
	*rig
	subs                     int64
	frames, batches, evicted *telemetry.Counter
}

func newMeteredRig(subs, batch int) (*meteredRig, error) {
	reg := telemetry.NewRegistry()
	g, err := newRig(subs, 0, batch, reg)
	if err != nil {
		return nil, err
	}
	return &meteredRig{rig: g, subs: int64(subs),
		frames:  reg.Counter("vab_gateway_frames_sent_total", ""),
		batches: reg.Counter("vab_gateway_reading_batches_total", ""),
		evicted: reg.Counter("vab_gateway_slow_subscriber_drops_total", ""),
	}, nil
}

// settle spins until every subscriber has been written its hello, its
// resume ack and every batch frame encoded so far; it fails once a
// subscriber has been evicted or after 30 s.
func (m *meteredRig) settle() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		want := (2 + m.batches.Value()) * m.subs
		got := m.frames.Value()
		switch {
		case got >= want:
			return nil
		case m.evicted.Value() > 0 || time.Now().After(deadline):
			return fmt.Errorf("%d of %d frames written, %d subscribers evicted", got, want, m.evicted.Value())
		}
		runtime.Gosched()
	}
}

func ladderReadings(seed int64, n int) []gateway.Reading {
	rds := make([]gateway.Reading, n)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	for i := range rds {
		rds[i] = expectedReading(seed, uint64(i+1), t0+int64(i)*int64(25*time.Microsecond))
	}
	return rds
}

func gatewayRungs(l *ladder) error {
	// Codec: one sequenced batch of 16 readings, the fan-out batch size.
	batch := ladderReadings(l.o.Seed, 16)
	payload, err := gateway.AppendSeqBatch(nil, 1, batch)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, gateway.MaxPayloadSize)
	if _, err := l.timeOp("gateway.encode_seq_ns_per_reading", float64(len(batch)), func() error {
		var err error
		buf, err = gateway.AppendSeqBatch(buf[:0], 1, batch)
		return err
	}); err != nil {
		return err
	}
	decoded := make([]gateway.Reading, 0, len(batch))
	if _, err := l.timeOp("gateway.decode_seq_ns_per_reading", float64(len(batch)), func() error {
		var err error
		decoded, _, err = gateway.DecodeSeqBatchInto(decoded[:0], payload)
		return err
	}); err != nil {
		return err
	}
	frame, err := gateway.EncodeFrame(gateway.MsgSeqBatch, payload)
	if err != nil {
		return err
	}
	l.put("gateway.wire_bytes_per_reading", constant(float64(len(frame))/float64(len(batch))))

	if err := publishRung(l); err != nil {
		return err
	}
	if err := fanoutRung(l); err != nil {
		return err
	}
	if err := burstRung(l); err != nil {
		return err
	}
	return deliverRung(l)
}

// publishRung times Publish alone: 16 subscribers, 64-reading batches,
// bursts of 1024 readings, each drained before the next (untimed).
func publishRung(l *ladder) error {
	g, err := newMeteredRig(16, 64)
	if err != nil {
		return err
	}
	defer g.close()
	rds := ladderReadings(l.o.Seed, 1024)
	burst := func() (time.Duration, error) {
		start := time.Now()
		for _, rd := range rds {
			g.srv.Publish(rd)
		}
		d := time.Since(start)
		return d, g.settle()
	}
	if _, err := burst(); err != nil {
		return err
	}
	xs := make([]float64, 0, ladderSamples)
	for s := 0; s < ladderSamples; s++ {
		var busy time.Duration
		n := 0
		for n == 0 || busy < l.sample {
			d, err := burst()
			if err != nil {
				return fmt.Errorf("gateway.publish_ns: %w", err)
			}
			busy += d
			n += len(rds)
		}
		xs = append(xs, float64(busy.Nanoseconds())/float64(n))
	}
	l.put("gateway.publish_ns", Summarize(xs))
	l.evictions += g.evicted.Value()
	return nil
}

// fanoutRung is the counting-sink flush ladder at 10k subscribers: one op
// publishes four full 16-reading batches and waits until every subscriber
// has been written every batch frame.
func fanoutRung(l *ladder) error {
	subs := l.ladderSubs(10_000)
	g, err := newMeteredRig(subs, 16)
	if err != nil {
		return err
	}
	defer g.close()
	rds := ladderReadings(l.o.Seed, 64)
	_, err = l.timeOp("gateway.fanout_ns_per_rs", float64(len(rds)*subs), func() error {
		for _, rd := range rds {
			g.srv.Publish(rd)
		}
		return g.settle()
	})
	l.evictions += g.evicted.Value()
	return err
}

// burstRung publishes one 4096-reading burst (256 flushes of 16) to 16
// counting sinks on a fresh server, five times, and counts the evicted
// subscribers. A flusher that falls behind hands its whole backlog to a
// 64-entry subscriber ring in one all-or-nothing push, so today most runs
// count 24–64 evictions; some, where the flushers keep up, count none.
func burstRung(l *ladder) error {
	rds := ladderReadings(l.o.Seed, 4096)
	var evicted int64
	for trial := 0; trial < 5; trial++ {
		g, err := newMeteredRig(16, 16)
		if err != nil {
			return err
		}
		for _, rd := range rds {
			g.srv.Publish(rd)
		}
		// Settled once the frame count stops moving.
		deadline := time.Now().Add(30 * time.Second)
		for last := int64(-1); g.frames.Value() != last && time.Now().Before(deadline); {
			last = g.frames.Value()
			time.Sleep(100 * time.Millisecond)
		}
		evicted += g.evicted.Value()
		g.close()
	}
	l.put("gateway.burst_evictions", constant(float64(evicted)))
	return nil
}

// deliverRung runs the ingest_bulk pipeline for one feed cycle and reports
// Publish→receipt latency at the probes and the feed generator's health.
func deliverRung(l *ladder) error {
	r, err := bulkWorkload.setup(l.o)
	if err != nil {
		return err
	}
	ir := r.(*ingestRunner)
	defer ir.close()
	reg := telemetry.NewRegistry()
	ir.srv.Instrument(reg)
	d := time.Second // one feed cycle
	if l.o.Small {
		d = 500 * time.Millisecond
	}
	ph, st, err := ir.run(d, nil)
	if err != nil {
		return err
	}
	if ph.failed > 0 || len(ph.problems) > 0 {
		return fmt.Errorf("bulk pipeline lost %d of %d reading·subs: %v", ph.failed, ph.attempted, ph.problems)
	}
	l.put("gateway.deliver_p50_ms", Blocked(st.deliverMs, 5, Median))
	l.put("gateway.deliver_p99_ms", Blocked(st.deliverMs, 5, func(xs []float64) float64 { return Percentile(xs, 0.99) }))
	l.put("feed.lag_p99_ms", Blocked(st.lagMs, 5, func(xs []float64) float64 { return Percentile(xs, 0.99) }))
	l.put("feed.cycle_ms", Summarize(st.cycleMs))
	l.evictions += reg.Counter("vab_gateway_slow_subscriber_drops_total", "").Value()
	return nil
}
