// Command vabbench runs the repo's headline performance workloads and
// emits a machine-readable snapshot, so the perf trajectory is tracked
// across PRs instead of living in commit messages.
//
// Usage:
//
//	vabbench                     # writes BENCH_<yyyy-mm-dd>.json
//	vabbench -out bench.json     # explicit path ("-" for stdout)
//	vabbench -time 0.2           # seconds per workload (default 1)
//	vabbench -compare prev.json  # diff against a previous snapshot
//
// Each workload is timed with its own calibration loop (run once, then
// scale iterations to fill the time budget) and reports ns/op plus
// allocs/op from runtime.MemStats deltas. The serial/parallel pairs share
// identical seeded inputs, so their ratio is the measured speedup of the
// worker pool on this machine; the FFT workloads hit the cached-plan
// FFTInto path the demodulator and bench suite use.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"vab/internal/channel"
	"vab/internal/core"
	"vab/internal/dsp"
	"vab/internal/experiments"
	"vab/internal/gateway"
	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/netmem"
	"vab/internal/node"
	"vab/internal/ocean"
	"vab/internal/sim"
	"vab/internal/telemetry"
)

// sinkConn is a counting-sink subscriber socket for the gateway flush
// workloads: the first Read serves a scripted client hello, later Reads
// block until Close, and Writes are accepted instantly. Drain cost is zero and identical regardless of
// server internals, so the workload isolates server-side flush cost —
// encode, sequence, fan-out, and the writer path down to the socket call.
type sinkConn struct {
	hello  []byte // remaining scripted bytes; only the server's read loop touches it
	closed atomic.Bool
	unread chan struct{}
	addr   netmem.Addr
}

func newSinkConn(hello []byte) *sinkConn {
	return &sinkConn{hello: hello, unread: make(chan struct{}), addr: netmem.Addr{Name: "sink"}}
}

func (c *sinkConn) Read(b []byte) (int, error) {
	if len(c.hello) > 0 {
		n := copy(b, c.hello)
		c.hello = c.hello[n:]
		return n, nil
	}
	<-c.unread
	return 0, io.EOF
}

func (c *sinkConn) Write(b []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return len(b), nil
}

// WriteBuffers accepts a writev batch in one call, matching the netmem
// transport's vectored-write fast path so the workload exercises the
// same server branch production transports hit.
func (c *sinkConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n, nil
}

func (c *sinkConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.unread)
	}
	return nil
}

func (c *sinkConn) LocalAddr() net.Addr              { return c.addr }
func (c *sinkConn) RemoteAddr() net.Addr             { return c.addr }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// sinkListener hands the server sink conns pushed via add, then blocks
// in Accept like an idle socket. Conns are fed only after the server's
// policies are configured: sessions must not register while the
// constructor-default heartbeat policy is still in force.
type sinkListener struct {
	conns chan net.Conn
	done  chan struct{}
	addr  netmem.Addr
}

func newSinkListener(capacity int) *sinkListener {
	return &sinkListener{conns: make(chan net.Conn, capacity), done: make(chan struct{}), addr: netmem.Addr{Name: "sink"}}
}

func (l *sinkListener) add(c net.Conn) { l.conns <- c }

func (l *sinkListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *sinkListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *sinkListener) Addr() net.Addr { return l.addr }

// result is one workload's measurement.
type result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// NsPerItem normalizes ns/op by the workload's item count (per-node
	// cost for fleet-cycle workloads); 0 for unit workloads.
	NsPerItem float64 `json:"ns_per_item,omitempty"`
}

// report is the emitted JSON document. GOMAXPROCS is recorded alongside
// the CPU count so parallel-workload numbers can be interpreted on boxes
// where the two differ (container quotas, taskset, GOMAXPROCS overrides).
type report struct {
	Date       string   `json:"date"`
	Go         string   `json:"go"`
	CPUs       int      `json:"cpus"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Results    []result `json:"results"`
}

// measure calibrates f with one warm-up call, then runs it enough times to
// fill roughly budget seconds, reporting per-op wall time and allocations.
func measure(name string, budget float64, f func()) result {
	f() // warm-up: builds FFT plans, faults in pages

	start := time.Now()
	f()
	per := time.Since(start)
	if per <= 0 {
		per = time.Nanosecond
	}
	iters := int(budget * float64(time.Second) / float64(per))
	if iters < 1 {
		iters = 1
	}
	if iters > 1_000_000 {
		iters = 1_000_000
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	return result{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
	}
}

func main() {
	out := flag.String("out", "", `output path (default BENCH_<yyyy-mm-dd>.json, "-" for stdout)`)
	budget := flag.Float64("time", 1.0, "seconds of measurement per workload")
	compare := flag.String("compare", "", "previous vabbench snapshot to diff against (warns on >20% ns/op regressions)")
	filter := flag.String("filter", "", "run only workloads whose name contains this substring")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured workloads")
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	env := ocean.CharlesRiver()
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		fatal(err)
	}
	budgetTier := core.NewLinkBudget(env, design)

	rng := rand.New(rand.NewSource(1))
	x1024 := dsp.GaussianNoise(make([]complex128, 1024), 1, rng)
	x1000 := dsp.GaussianNoise(make([]complex128, 1000), 1, rng)
	dst := make([]complex128, 1024)
	real1024 := make([]float64, 1024)
	for i := range real1024 {
		real1024[i] = rng.NormFloat64()
	}
	rfftDst := make([]complex128, 1024)
	convDst := make([]complex128, 1024+64-1)

	sweep := make([]sim.TrialConfig, 16)
	for i := range sweep {
		sweep[i] = sim.TrialConfig{
			Budget: budgetTier, RangeM: 100 + 20*float64(i), Trials: 100,
			ChipsPerTrial: 392, Seed: int64(i + 1),
		}
	}

	// Channel-layer workloads: the steady-state round pipeline. One link,
	// reused buffers, a rebuild per round — the shape core.System drives.
	linkCfg := channel.Config{
		Env: env, CarrierHz: 18.5e3, SampleRate: 16e3,
		ReaderDepth: 1.6, NodeDepth: 2.4, Range: 100,
		SelfInterferenceDB: -30, ColoredNoise: true, Seed: 1,
	}
	lnk, err := channel.New(linkCfg)
	if err != nil {
		fatal(err)
	}
	const chN = 16384
	chTx := make([]complex128, chN)
	chGamma := make([]complex128, chN)
	chDst := make([]complex128, chN)
	for i := range chTx {
		chTx[i] = complex(1e9, 0)
		chGamma[i] = complex(float64(i%2), 0)
	}
	linkGeom := channel.Geometry{ReaderDepth: 1.61, NodeDepth: 2.39, Range: 100.02}
	var linkSeed int64

	// Fleet-cycle workloads: one full 64-node polling cycle through the MAC
	// wave scheduler, serial vs parallel pool. Seeded cycle output is
	// bit-identical at both widths, so the pair measures pure scheduling.
	mkFleet := func(workers int) *core.Fleet {
		placements := make([]core.NodePlacement, 64)
		for i := range placements {
			placements[i] = core.NodePlacement{
				Addr:        byte(i + 1),
				Range:       40 + float64(i),
				Orientation: 0.1 * float64(i%7),
			}
		}
		f, err := core.NewFleet(
			core.SystemConfig{Env: env, Design: design, Range: 1, Seed: 99},
			placements, mac.DefaultPollPolicy(),
		)
		if err != nil {
			fatal(err)
		}
		f.SetWorkers(workers)
		f.Deploy(3600)
		return f
	}
	fleetSerial := mkFleet(1)
	fleetParallel := mkFleet(0)

	// Abstract-tier workloads: one full polling cycle on the calibrated
	// link model (no heroes — pure model cost), at 100k and a million
	// nodes, serial vs pooled. The ns/item column is the per-node cost —
	// compare against fleet_cycle64/64 for the abstraction's speedup over
	// the waveform tier. Fleets are built lazily on first use so filtered
	// runs don't pay the million-node construction or its footprint.
	mkAbstract := func(nodes, workers int) func() *linksim.Fleet {
		var f *linksim.Fleet
		return func() *linksim.Fleet {
			if f == nil {
				var err error
				f, err = linksim.NewFleet(linksim.Config{
					Nodes:  nodes,
					Policy: mac.DefaultPollPolicy(),
					Seed:   99,
				})
				if err != nil {
					fatal(err)
				}
				f.SetWorkers(workers)
			}
			return f
		}
	}
	abstractSerial := mkAbstract(100_000, 1)
	abstractParallel := mkAbstract(100_000, 0)
	abstract1mSerial := mkAbstract(1_000_000, 1)
	abstract1mParallel := mkAbstract(1_000_000, 0)

	// TDL engine crossover: identical sparse kernels through both engines.
	tdlRng := rand.New(rand.NewSource(2))
	mkTaps := func(n int) []channel.Tap {
		taps := make([]channel.Tap, n)
		for i := range taps {
			taps[i] = channel.Tap{
				DelaySamples: 500 + tdlRng.Float64()*400,
				Gain:         complex(tdlRng.NormFloat64(), tdlRng.NormFloat64()),
			}
		}
		return taps
	}
	tdlX := dsp.GaussianNoise(make([]complex128, chN), 1, tdlRng)
	tdlDst := make([]complex128, chN)
	tdls := map[string]*channel.TDL{}
	for _, n := range []int{4, 16, 64} {
		taps := mkTaps(n)
		tdls[fmt.Sprintf("time_%dtaps", n)] = channel.NewTDL(taps, false)
		tdls[fmt.Sprintf("freq_%dtaps", n)] = channel.NewTDL(taps, true)
	}

	// Wire-codec workloads: the bit-packed sensor payload and the batched
	// gateway format, steady state (reused buffers — both paths pin zero
	// allocations per op in their package tests).
	packRng := rand.New(rand.NewSource(3))
	packReadings := make([]node.Reading, 6)
	for i := range packReadings {
		packReadings[i] = node.Reading{
			Count:        1000 + uint32(i),
			TempC:        float64(1200+packRng.Intn(40)+i) / 100,
			PressureMbar: float64(1290 + packRng.Intn(8)),
		}
	}
	packBuf := make([]byte, 0, node.PackedPayloadSize(len(packReadings)))
	wireReadings := make([]gateway.Reading, 16)
	for i := range wireReadings {
		wireReadings[i] = gateway.Reading{
			NodeAddr: byte(i%4 + 1), Seq: byte(i), Count: 500 + uint32(i),
			TempC: float64(1200+i) / 100, PressureMbar: float64(1290 + i),
			SNRdB: float64(1500+packRng.Intn(300)) / 100,
			Time:  time.Unix(0, 1700000000000000000+int64(i)*250e6).UTC(),
		}
	}
	wireBuf := make([]byte, 0, gateway.MaxPayloadSize)
	const wireSeq = 1 << 20 // a mid-stream sequence: a 3-byte prefix
	wirePayload, err := gateway.AppendSeqBatch(nil, wireSeq, wireReadings)
	if err != nil {
		fatal(err)
	}
	wireDecoded := make([]gateway.Reading, 0, len(wireReadings))

	// Gateway fan-out workloads: an in-process server with N counting-sink
	// subscribers; one op publishes `flushes` full batches and waits until
	// every subscriber has received every flush frame (framesSent
	// telemetry). ns/item is the per-reading-per-subscriber delivery cost.
	// Every sink replays the client hello, and every flush is one batch
	// frame per subscriber. Built lazily so filtered runs don't pay the
	// session setup.
	const gwBatch = 16
	mkGatewayFlush := func(subs, flushes int) func() {
		var op func()
		return func() {
			if op == nil {
				hello, err := gateway.EncodeFrame(gateway.MsgHello, []byte{gateway.ProtocolV2})
				if err != nil {
					fatal(err)
				}
				ln := newSinkListener(subs)
				srv := gateway.NewServerListener(context.Background(), ln, func(string, ...interface{}) {})
				srv.SetBatching(gwBatch, time.Hour)
				srv.SetHeartbeatPolicy(time.Hour, 3)
				reg := telemetry.NewRegistry()
				srv.Instrument(reg)
				frames := reg.Counter("vab_gateway_frames_sent_total", "")
				for i := 0; i < subs; i++ {
					ln.add(newSinkConn(hello))
				}
				for srv.Subscribers() < subs {
					time.Sleep(time.Millisecond)
				}
				rd := gateway.Reading{NodeAddr: 1, Seq: 1, Count: 1, TempC: 15, PressureMbar: 1250, SNRdB: 18, Time: time.Unix(0, 1700000000000000000).UTC()}
				op = func() {
					want := frames.Value() + int64(flushes*subs)
					for f := 0; f < flushes; f++ {
						for i := 0; i < gwBatch; i++ {
							if err := srv.Publish(rd); err != nil {
								fatal(err) // the op would wait forever for frames
							}
						}
					}
					for frames.Value() < want {
						runtime.Gosched()
					}
				}
				for i := 0; i < 4; i++ {
					op() // writer buffers and arena freelist reach their high-water marks
				}
			}
			op()
		}
	}
	// The 10k op stays at 4 flushes, well inside the 64-entry broadcast
	// log, so a slow writer never trips slow-subscriber eviction mid-op.
	gatewayFlush1k := mkGatewayFlush(1_000, 8)
	gatewayFlush10k := mkGatewayFlush(10_000, 4)

	// items gives per-op item counts for ns/item normalization (per-node
	// cost for the fleet-cycle workloads, per-reading cost for the wire
	// codecs); absent names are unit workloads.
	items := map[string]int{
		"fleet_cycle64_serial":        64,
		"fleet_cycle64_parallel":      64,
		"abstract_cycle100k_serial":   100_000,
		"abstract_cycle100k_parallel": 100_000,
		"abstract_cycle1m_serial":     1_000_000,
		"abstract_cycle1m_parallel":   1_000_000,
		"gateway_flush_1k":            gwBatch * 8 * 1_000,
		"gateway_flush_10k":           gwBatch * 4 * 10_000,
		"payload_pack6":               6,
		"wire_encode_batch16":         16,
		"wire_decode_batch16":         16,
	}

	workloads := []struct {
		name string
		f    func()
	}{
		{"fft1024_into", func() { dsp.FFTInto(dst, x1024) }},
		{"fft_bluestein1000_into", func() { dsp.FFTInto(dst[:1000], x1000) }},
		{"rfft1024", func() { dsp.RFFT(real1024) }},
		{"rfft1024_into", func() { dsp.RFFTInto(rfftDst, real1024) }},
		{"convolve_1024x64", func() { dsp.Convolve(x1024, x1024[:64]) }},
		{"convolve_1024x64_into", func() { dsp.ConvolveInto(convDst, x1024, x1024[:64]) }},
		{"montecarlo_cell", func() {
			if _, err := sim.RunCell(sweep[0]); err != nil {
				fatal(err)
			}
		}},
		{"montecarlo_sweep16_serial", func() {
			if _, err := sim.RunCells(sweep, 1); err != nil {
				fatal(err)
			}
		}},
		{"montecarlo_sweep16_parallel", func() {
			if _, err := sim.RunCells(sweep, 0); err != nil {
				fatal(err)
			}
		}},
		{"e10_campaign_serial", func() {
			if _, err := experiments.Run("E10", experiments.Options{Trials: 100, Seed: 1, Workers: 1}); err != nil {
				fatal(err)
			}
		}},
		{"e10_campaign_parallel", func() {
			if _, err := experiments.Run("E10", experiments.Options{Trials: 100, Seed: 1}); err != nil {
				fatal(err)
			}
		}},
		{"link_rebuild", func() {
			linkSeed++
			if err := lnk.Rebuild(linkGeom, linkSeed); err != nil {
				fatal(err)
			}
		}},
		{"channel_roundtrip_into_16k", func() {
			if _, err := lnk.RoundTripInto(chDst, chTx, chGamma, complex(0.1, 0)); err != nil {
				fatal(err)
			}
		}},
		{"channel_roundtrip_alloc_16k", func() {
			if _, err := lnk.RoundTrip(chTx, chGamma, complex(0.1, 0)); err != nil {
				fatal(err)
			}
		}},
		{"uplink_noise_into_16k", func() { lnk.UplinkInto(chDst, chTx, chTx) }},
		{"fleet_cycle64_serial", func() {
			if _, _, err := fleetSerial.RunCycle(); err != nil {
				fatal(err)
			}
		}},
		{"fleet_cycle64_parallel", func() {
			if _, _, err := fleetParallel.RunCycle(); err != nil {
				fatal(err)
			}
		}},
		{"abstract_cycle100k_serial", func() {
			if _, err := abstractSerial().RunCycle(); err != nil {
				fatal(err)
			}
		}},
		{"abstract_cycle100k_parallel", func() {
			if _, err := abstractParallel().RunCycle(); err != nil {
				fatal(err)
			}
		}},
		{"abstract_cycle1m_serial", func() {
			if _, err := abstract1mSerial().RunCycle(); err != nil {
				fatal(err)
			}
		}},
		{"abstract_cycle1m_parallel", func() {
			if _, err := abstract1mParallel().RunCycle(); err != nil {
				fatal(err)
			}
		}},
		{"gateway_flush_1k", func() { gatewayFlush1k() }},
		{"gateway_flush_10k", func() { gatewayFlush10k() }},
		{"payload_pack6", func() {
			var err error
			packBuf, err = node.AppendPacked(packBuf[:0], packReadings)
			if err != nil {
				fatal(err)
			}
		}},
		{"wire_encode_batch16", func() {
			var err error
			wireBuf, err = gateway.AppendSeqBatch(wireBuf[:0], wireSeq, wireReadings)
			if err != nil {
				fatal(err)
			}
		}},
		{"wire_decode_batch16", func() {
			var err error
			wireDecoded, _, err = gateway.DecodeSeqBatchInto(wireDecoded[:0], wirePayload)
			if err != nil {
				fatal(err)
			}
		}},
		{"tdl_time_4taps_16k", func() { tdls["time_4taps"].Apply(tdlDst, tdlX) }},
		{"tdl_freq_4taps_16k", func() { tdls["freq_4taps"].Apply(tdlDst, tdlX) }},
		{"tdl_time_16taps_16k", func() { tdls["time_16taps"].Apply(tdlDst, tdlX) }},
		{"tdl_freq_16taps_16k", func() { tdls["freq_16taps"].Apply(tdlDst, tdlX) }},
		{"tdl_time_64taps_16k", func() { tdls["time_64taps"].Apply(tdlDst, tdlX) }},
		{"tdl_freq_64taps_16k", func() { tdls["freq_64taps"].Apply(tdlDst, tdlX) }},
	}

	rep := report{
		Date:       time.Now().Format("2006-01-02"),
		Go:         runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, w := range workloads {
		if *filter != "" && !strings.Contains(w.name, *filter) {
			continue
		}
		if rep.CPUs == 1 && strings.HasSuffix(w.name, "_parallel") {
			// On a single-CPU box the pooled path measures the serial
			// workload plus scheduling noise — skip rather than record a
			// number that reads as a pool regression.
			fmt.Fprintf(os.Stderr, "vabbench: %-28s skipped (single CPU: parallel ≡ serial + noise)\n", w.name)
			continue
		}
		r := measure(w.name, *budget, w.f)
		perItem := ""
		if n := items[w.name]; n > 0 {
			r.NsPerItem = r.NsPerOp / float64(n)
			perItem = fmt.Sprintf(" %8.1f ns/item", r.NsPerItem)
		}
		fmt.Fprintf(os.Stderr, "vabbench: %-28s %12.0f ns/op %8.1f allocs/op %12.0f B/op%s (%d iters)\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, perItem, r.Iters)
		rep.Results = append(rep.Results, r)
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if path == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "vabbench: wrote %s\n", path)
	}
	if *compare != "" {
		compareSnapshots(*compare, rep)
	}
}

// compareSnapshots diffs the current report against a previous snapshot and
// warns (without failing: machines differ, CI boxes are noisy) when a shared
// workload regressed by more than 20% in ns/op. New or removed workloads are
// reported informationally.
func compareSnapshots(prevPath string, cur report) {
	data, err := os.ReadFile(prevPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vabbench: compare: %v (skipping)\n", err)
		return
	}
	var prev report
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "vabbench: compare: %s: %v (skipping)\n", prevPath, err)
		return
	}
	prevBy := make(map[string]result, len(prev.Results))
	for _, r := range prev.Results {
		prevBy[r.Name] = r
	}
	warned := 0
	for _, r := range cur.Results {
		p, ok := prevBy[r.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "vabbench: compare %-28s new workload (no baseline)\n", r.Name)
			continue
		}
		if p.NsPerOp <= 0 {
			continue
		}
		delta := (r.NsPerOp/p.NsPerOp - 1) * 100
		tag := ""
		switch {
		case delta > 20:
			tag = "  WARN: >20% regression"
			warned++
		case delta < -20:
			tag = "  (improved)"
		}
		fmt.Fprintf(os.Stderr, "vabbench: compare %-28s %12.0f -> %12.0f ns/op (%+6.1f%%)%s\n",
			r.Name, p.NsPerOp, r.NsPerOp, delta, tag)
	}
	if warned > 0 {
		fmt.Fprintf(os.Stderr, "vabbench: compare: %d workload(s) regressed >20%% vs %s\n", warned, prevPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vabbench:", err)
	os.Exit(1)
}
