package benchmark

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vab/internal/faults"
	"vab/internal/gateway"
	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/netmem"
	"vab/internal/telemetry"
)

// ingestConfig shapes an ingest workload: an open loop from an abstract
// fleet's cycles through gateway.Server.Publish to subscribers.
type ingestConfig struct {
	subs     int
	nodes    int           // feed fleet size; ~0.9 of it delivers per cycle
	interval time.Duration // one fleet cycle per interval
	batch    int           // gateway coalescing, readings per flush
	chaos    string        // fault scenario on the feed ("" = calm)
}

var fanoutWorkload = &Workload{
	name: "ingest_fanout",
	why:  "fan-out heavy: a 128-node feed every 100 ms (~1.2k readings/s) to 10k subscribers, so each reading goes to many subscribers",
	tail: 0.99,
	setup: func(o *Options) (runner, error) {
		cfg := ingestConfig{subs: 10_000, nodes: 128, interval: 100 * time.Millisecond, batch: 16}
		if o.Small {
			cfg.subs = 200
		}
		return setupIngest(o, cfg)
	},
}

// bulkWorkload batches 64 readings per flush: at 16 readings the shard
// flushers fall ~100 broadcasts behind at this rate and hand the whole
// backlog to a subscriber ring in one all-or-nothing push, evicting every
// subscriber (gateway.burst_evictions records that defect).
var bulkWorkload = &Workload{
	name: "ingest_bulk",
	why:  "per-reading heavy: a 100k-node chaos feed (~39k readings/s) to 16 subscribers; chaos changes every cycle, so the feed bypasses the resolved-cell cache",
	// Over six runs p99 swung between 2.5 and 7.2 ms while p90 and p95
	// stayed within about 1 %.
	tail:  0.90,
	setup: func(o *Options) (runner, error) { return setupIngest(o, bulkConfig(o)) },
}

func bulkConfig(o *Options) ingestConfig {
	cfg := ingestConfig{subs: 16, nodes: 100_000, interval: 2 * time.Second, batch: 64, chaos: bulkChaos}
	if o.Small {
		cfg.nodes, cfg.interval = 5_000, 250*time.Millisecond
	}
	return cfg
}

// bulkChaos is the fault scenario on the ingest_bulk feed.
const bulkChaos = "chaos:0.3"

// feedFaultSeed seeds the chaos feed's fault schedule. The fleet fills its
// resolved-cell cache whenever two consecutive cycles share a fault
// severity, which chaos:0.3 does for about one cycle pair in eighteen
// at most seeds; under this seed the first 272 cycles all differ, so the
// feed never touches the cache, on every run.
const feedFaultSeed = 8

// genTick is the generator's shortest sleep: it wakes at most once a
// millisecond and publishes every reading then due. Sleeping until each
// of ~39k readings a second is due instead, ingest_bulk's receipt p50 and
// p90 spread 2–4 % and 7–13 % over ten runs; with the tick, under 1 %.
const genTick = time.Millisecond

// pubSpanBit marks span ids derived from a reading's stream sequence, so a
// probe can name the Publish span of the reading it received.
const pubSpanBit = 1 << 62

type ingestRunner struct {
	*rig
	o     *Options
	cfg   ingestConfig
	fleet *linksim.Fleet
	chaos *faults.Engine
	wg    sync.WaitGroup // probe goroutines

	nextSeq uint64 // stream sequence of the next published reading
	cycles  uint64 // feed cycles run so far (trace ids)
}

// rig is a gateway server on an in-memory transport with nproc real
// clients (probes) and counting sinks attached.
type rig struct {
	cancel context.CancelFunc
	srv    *gateway.Server
	probes []*probe
	sinks  []*sinkConn
}

// probe is a real gateway.Client with a resume session that checks every
// reading it receives.
type probe struct {
	client *gateway.Client
	conn   *countConn
	last   atomic.Uint64 // highest sequence received
	cur    atomic.Pointer[ingestPhase]
}

// ingestPhase is one measured phase's publish record, shared with the
// probes. The publisher fills an entry before publishing its reading, and
// a probe reads it only after receiving that reading, so the gateway's
// own synchronisation orders every access.
type ingestPhase struct {
	base   uint64  // first sequence of the phase
	due    []int64 // due time (UnixNano), indexed by sequence - base
	pub    []int64 // Publish call time (UnixNano)
	trace  []uint64
	probes []probePhase
}

// probePhase is written only by its probe's goroutine until the probe has
// received the phase's last reading.
type probePhase struct {
	good      int64     // in-order readings with the expected content
	bad       int64     // wrong content, duplicates and gaps
	latMs     []float64 // due → Client.Next return
	deliverMs []float64 // Publish → Client.Next return
	spans     *SpanBuffer
}

func setupIngest(o *Options, cfg ingestConfig) (runner, error) {
	g, err := newRig(cfg.subs, min(runtime.NumCPU(), cfg.subs), cfg.batch, nil)
	if err != nil {
		return nil, err
	}
	r := &ingestRunner{rig: g, o: o, cfg: cfg, nextSeq: g.srv.NextSeq()}
	r.fleet, err = linksim.NewFleet(linksim.Config{Nodes: cfg.nodes, Policy: mac.DefaultPollPolicy(), Seed: o.Seed})
	if err != nil {
		r.close()
		return nil, err
	}
	r.fleet.SetWorkers(runtime.NumCPU())
	if cfg.chaos != "" {
		if r.chaos, err = chaosEngine(cfg.chaos, feedFaultSeed); err != nil {
			r.close()
			return nil, err
		}
		r.fleet.SetFaultEngine(r.chaos)
	}
	for i, p := range r.probes {
		r.wg.Add(1)
		go r.runProbe(i, p)
	}
	return r, nil
}

// newRig starts a gateway with subs subscribers, the first nprobes of them
// real resume-session clients and the rest counting sinks replaying such a
// client's handshake. It returns once the server has processed every
// handshake, so every subscriber's byte stream starts identically.
// A non-nil reg instruments the server before anyone connects.
func newRig(subs, nprobes, batch int, reg *telemetry.Registry) (*rig, error) {
	hs, err := recordHandshake(gateway.WithResume(0))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ln := newChanListener()
	g := &rig{cancel: cancel}
	g.srv = gateway.NewServerListener(ctx, ln, func(string, ...any) {})
	g.srv.SetHeartbeatPolicy(time.Hour, gateway.DefaultHeartbeatMiss)
	g.srv.SetBatching(batch, 0) // the default deadline for a partial batch
	g.srv.Instrument(reg)
	if err := g.connect(ln, hs, subs, nprobes); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func (g *rig) connect(ln *chanListener, hs []byte, subs, nprobes int) error {
	var ready atomic.Int64
	done := func() { ready.Add(1) }
	mem := netmem.Listen("probes", 0)
	defer mem.Close()
	for i := 0; i < nprobes; i++ {
		cconn, err := mem.Dial()
		if err != nil {
			return err
		}
		sconn, err := mem.Accept()
		if err != nil {
			return err
		}
		if err := ln.add(&watchConn{Conn: sconn.(*netmem.Conn), need: len(hs), ready: done}); err != nil {
			return err
		}
		cc := &countConn{Conn: cconn}
		client, err := gateway.NewClientConn(cc, gateway.WithResume(0))
		if err != nil {
			return err
		}
		g.probes = append(g.probes, &probe{client: client, conn: cc})
	}
	for i := nprobes; i < subs; i++ {
		s := newSinkConn(hs, done)
		if err := ln.add(s); err != nil {
			return err
		}
		g.sinks = append(g.sinks, s)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for ready.Load() < int64(subs) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d subscribers finished the handshake", ready.Load(), subs)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close shuts the server down gracefully; probes see the goodbye.
func (g *rig) close() {
	g.srv.Close()
	for _, p := range g.probes {
		p.client.Close()
	}
	g.cancel()
}

// expectedReading is the content of the reading with stream sequence seq:
// synthetic sensor values on the wire's quantisation grid (0.01 °C, 1 mbar,
// 0.01 dB), so a correct delivery compares equal.
func expectedReading(seed int64, seq uint64, due int64) gateway.Reading {
	h := splitmix(uint64(seed) ^ seq*0x9e3779b97f4a7c15)
	return gateway.Reading{
		NodeAddr:     byte(seq%250 + 1),
		Seq:          byte(seq),
		Count:        uint32(seq),
		TempC:        float64(500+int64(h%2500)) / 100,
		PressureMbar: float64(1000 + (h>>16)%600),
		SNRdB:        float64(int64((h>>32)%4000)-500) / 100,
		Time:         time.Unix(0, due).UTC(),
	}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func sameReading(a, b gateway.Reading) bool {
	return a.NodeAddr == b.NodeAddr && a.Seq == b.Seq && a.Count == b.Count &&
		a.TempC == b.TempC && a.PressureMbar == b.PressureMbar && a.SNRdB == b.SNRdB &&
		a.Time.Equal(b.Time)
}

// runProbe receives until the server closes, checking each reading's
// sequence and content against the phase that published it.
func (r *ingestRunner) runProbe(idx int, p *probe) {
	defer r.wg.Done()
	for {
		var sp OpenSpan
		if ph := p.cur.Load(); ph != nil {
			sp = ph.probes[idx].spans.Start("gateway.Client.Next", 0, 0)
		}
		rd, err := p.client.Next(time.Time{})
		now := time.Now().UnixNano()
		if err != nil {
			return // goodbye or closed conn: the runner is shutting down
		}
		seq := p.client.LastSeq()
		ph := p.cur.Load()
		prev := p.last.Load()
		if ph == nil || seq < ph.base || seq-ph.base >= uint64(len(ph.due)) {
			p.last.Store(max(prev, seq))
			continue // outside any phase: counted as missing by the phase
		}
		i := seq - ph.base
		pp := &ph.probes[idx]
		if seq == prev+1 && sameReading(rd, expectedReading(r.o.Seed, seq, ph.due[i])) {
			pp.good++
			pp.latMs = append(pp.latMs, float64(now-ph.due[i])/1e6)
			pp.deliverMs = append(pp.deliverMs, float64(now-ph.pub[i])/1e6)
		} else {
			pp.bad++
		}
		sp.link(ph.trace[i], pubSpanBit|seq)
		sp.End()
		p.last.Store(max(prev, seq))
	}
}

func (r *ingestRunner) verify() error { return nil }

func (r *ingestRunner) instrument(reg *telemetry.Registry) {
	r.srv.Instrument(reg)
	r.fleet.Instrument(reg)
	r.chaos.Instrument(reg)
}

// ingestStats are the ingest-only measurements the ladder reuses.
type ingestStats struct {
	lagMs, cycleMs, deliverMs []float64
}

func (r *ingestRunner) measure(d time.Duration, _ int, tr *Tracer) (phase, error) {
	ph, _, err := r.run(d, tr)
	return ph, err
}

// run publishes one open-loop phase of whole feed cycles lasting about d.
// Cycle c's readings are due evenly across [start+c·interval,
// start+(c+1)·interval) and are stamped with their due time; a feeder
// goroutine runs the fleet one cycle ahead of the publisher.
func (r *ingestRunner) run(d time.Duration, tr *Tracer) (phase, ingestStats, error) {
	var ph phase
	var st ingestStats
	cycles := max(1, int((d+r.cfg.interval-1)/r.cfg.interval))
	ip := &ingestPhase{base: r.nextSeq, probes: make([]probePhase, len(r.probes))}
	capacity := cycles * r.cfg.nodes
	ip.due, ip.pub, ip.trace = make([]int64, capacity), make([]int64, capacity), make([]uint64, capacity)
	// Sample slices get the phase's full capacity up front, so the live
	// heap does not depend on where append growth happened to stop.
	st.lagMs = make([]float64, 0, capacity)
	for i, p := range r.probes {
		pp := &ip.probes[i]
		pp.latMs, pp.deliverMs = make([]float64, 0, capacity), make([]float64, 0, capacity)
		pp.spans = tr.Buffer()
		p.cur.Store(ip)
	}

	type feedCycle struct {
		n           int
		trace, span uint64
		ms          float64
		err         error
	}
	feed := make(chan feedCycle, 1) // one cycle of lookahead
	stop := make(chan struct{})
	var fwg sync.WaitGroup
	fbuf := tr.Buffer()
	fwg.Add(1)
	go func() {
		defer fwg.Done()
		defer close(feed)
		for c := 0; c < cycles; c++ {
			r.cycles++
			trace := r.cycles
			t0 := time.Now()
			root := fbuf.Start("feed.cycle", trace, 0)
			sp := fbuf.Start("linksim.RunCycle", trace, root.ID())
			rep, err := r.fleet.RunCycle()
			sp.End()
			root.End()
			fc := feedCycle{n: rep.Delivered, trace: trace, span: root.ID(), ms: float64(time.Since(t0)) / 1e6, err: err}
			select {
			case feed <- fc:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		fwg.Wait()
	}()

	pbuf := tr.Buffer()
	seq := r.nextSeq
	var start time.Time
	for c := 0; c < cycles; c++ {
		fc, ok := <-feed
		if !ok {
			break
		}
		if fc.err != nil {
			return ph, st, fc.err
		}
		st.cycleMs = append(st.cycleMs, fc.ms)
		if c == 0 {
			start = time.Now()
		}
		window := start.Add(time.Duration(c) * r.cfg.interval)
		for i := 0; i < fc.n; {
			now := time.Now()
			for ; i < fc.n; i++ {
				due := window.Add(r.cfg.interval * time.Duration(i) / time.Duration(fc.n))
				if due.After(now) {
					time.Sleep(max(due.Sub(now), genTick))
					break
				}
				k := seq - ip.base
				ip.due[k], ip.trace[k] = due.UnixNano(), fc.trace
				t := time.Now()
				ip.pub[k] = t.UnixNano()
				st.lagMs = append(st.lagMs, float64(t.Sub(due))/1e6)
				sp := pbuf.StartID("gateway.Publish", pubSpanBit|seq, fc.trace, fc.span)
				r.srv.Publish(expectedReading(r.o.Seed, seq, ip.due[k]))
				sp.End()
				seq++
			}
		}
	}
	r.srv.Flush()
	published := int64(seq - r.nextSeq)
	r.nextSeq = seq
	subs := int64(len(r.probes) + len(r.sinks))
	ph.attempted = published * subs
	if err := r.drain(seq-1, 30*time.Second); err != nil {
		// A probe still receiving owns its phase record: count it all lost.
		ph.failed = ph.attempted
		ph.problems = append(ph.problems, err.Error())
		return ph, st, nil
	}

	// Loss: every reading a probe did not receive in order with the right
	// content, and every reading of a sink whose byte count differs from
	// the probes'.
	want := r.probes[0].conn.bytes.Load()
	ph.opMs = make([]float64, 0, published*int64(len(r.probes)))
	st.deliverMs = make([]float64, 0, cap(ph.opMs))
	for i, p := range r.probes {
		pp := &ip.probes[i]
		ph.failed += published - pp.good
		if pp.bad > 0 {
			ph.problems = append(ph.problems, fmt.Sprintf("probe %d: %d readings out of order or with wrong content", i, pp.bad))
		}
		if b := p.conn.bytes.Load(); b != want {
			ph.problems = append(ph.problems, fmt.Sprintf("probe %d read %d bytes, probe 0 read %d", i, b, want))
		}
		ph.opMs = append(ph.opMs, pp.latMs...)
		st.deliverMs = append(st.deliverMs, pp.deliverMs...)
	}
	short := 0
	for _, s := range r.sinks {
		if s.bytes.Load() != want {
			ph.failed += published
			short++
		}
	}
	if short > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("%d of %d sinks received a different byte count than the probes", short, len(r.sinks)))
	}
	ph.items = ph.attempted - ph.failed
	return ph, st, nil
}

// drain waits until every probe has received sequence last and every sink
// has as many bytes as the probes.
func (r *ingestRunner) drain(last uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, p := range r.probes {
		for p.last.Load() < last {
			if time.Now().After(deadline) {
				return fmt.Errorf("probe %d stopped at sequence %d of %d", i, p.last.Load(), last)
			}
			time.Sleep(time.Millisecond)
		}
	}
	want := r.probes[0].conn.bytes.Load()
	for _, s := range r.sinks {
		for s.bytes.Load() < want && !s.closed.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (r *ingestRunner) close() {
	r.srv.Close() // the goodbye ends the probe goroutines
	r.wg.Wait()
	r.rig.close()
	if r.fleet != nil {
		r.fleet.Close()
	}
}
