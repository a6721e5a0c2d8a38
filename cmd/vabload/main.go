// Command vabload is the gateway load-soak harness: it stands up an
// in-process gateway fed by the abstract linksim tier (deployment-scale
// cycle cadence and delivered counts from the calibrated link model),
// fans the stream out to thousands of concurrent subscribers, and
// reports fan-out latency percentiles, loss/recovery counts and
// slow-subscriber evictions.
//
// Optionally the listener is wrapped in the seeded netfaults chaos layer
// (-netchaos), turning the soak into a live-TCP incarnation of the E14
// campaign: subscribers churn through injected drops, stalls and torn
// frames, and -resume lets their sessions recover the gaps from the
// replay ring.
//
// The -transport flag picks the wire: real loopback TCP for fidelity, or
// the in-process netmem transport for scale (100k+ subscribers need
// neither fds nor ports). "auto" uses TCP up to a few thousand
// subscribers and netmem beyond that. -check turns the soak into an
// assertion: a nonzero exit when any publish stalled or any subscriber
// observed a sequence gap.
//
// Usage:
//
//	vabload -subs 1000 -cycles 50 -resume
//	vabload -subs 100000 -transport mem -cycles 5 -nodes 64 -check
//	vabload -subs 256 -netchaos chaos:0.25 -netseed 7 -resume -json load.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vab/internal/faults/netfaults"
	"vab/internal/gateway"
	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/netmem"
	"vab/internal/rlimit"
	"vab/internal/telemetry"
)

// tcpSubLimit is where -transport auto switches to netmem: past a few
// thousand loopback connections the soak measures fd and ephemeral-port
// limits, not the gateway.
const tcpSubLimit = 4096

// subStats is one subscriber's tally, written by its goroutine and read
// after the soak joins.
type subStats struct {
	delivered  int64
	reconnects int64
	gaps       int64 // missing readings observed via sequence jumps
	replayLoss int64 // readings the ack disclosed as aged out
	samples    []float64
}

type report struct {
	Date         string  `json:"date"`
	Go           string  `json:"go"`
	CPUs         int     `json:"cpus"`
	Transport    string  `json:"transport"`
	Shards       int     `json:"shards"`
	Subs         int     `json:"subs"`
	Cycles       int     `json:"cycles"`
	Nodes        int     `json:"nodes"`
	Resume       bool    `json:"resume"`
	NetChaos     string  `json:"netchaos,omitempty"`
	Published    int64   `json:"published"`
	Delivered    int64   `json:"delivered"`
	MeanPerSub   float64 `json:"mean_delivered_per_sub"`
	P50Ms        float64 `json:"fanout_p50_ms"`
	P99Ms        float64 `json:"fanout_p99_ms"`
	FanoutMps    float64 `json:"fanout_mreading_subs_per_sec"`
	MaxPublishUs float64 `json:"max_publish_us"`
	Stalls       int64   `json:"publish_stalls"`
	Reconnects   int64   `json:"reconnects"`
	Gaps         int64   `json:"gap_readings"`
	ReplayLoss   int64   `json:"aged_out_readings"`
	SlowEvicts   int64   `json:"slow_evictions"`
	DeadEvicts   int64   `json:"dead_peer_evictions"`
	Replayed     int64   `json:"readings_replayed"`
}

func main() {
	subs := flag.Int("subs", 200, "concurrent subscribers")
	cycles := flag.Int("cycles", 30, "linksim fleet cycles to publish")
	nodes := flag.Int("nodes", 128, "abstract-tier fleet size (readings per cycle ≈ delivered nodes)")
	interval := flag.Duration("interval", 50*time.Millisecond, "pause between fleet cycles")
	batch := flag.Int("batch", 16, "gateway broadcast coalescing (readings per flush)")
	flush := flag.Duration("flush", 5*time.Millisecond, "gateway flush deadline for a partial batch")
	resume := flag.Bool("resume", false, "subscribers request session resume (sequenced delivery + gap replay)")
	replay := flag.Int("replay", gateway.DefaultReplayWindow, "server replay ring size (readings)")
	netchaos := flag.String("netchaos", "", "netfaults profile wrapping the listener (e.g. \"chaos:0.25\", \"blips+lossy\"; empty = clean network)")
	netseed := flag.Int64("netseed", 1, "netfaults schedule seed")
	transport := flag.String("transport", "auto", "subscriber transport: tcp, mem (in-process), or auto")
	shards := flag.Int("shards", 0, "subscriber registry shards (0 = one per CPU)")
	check := flag.Bool("check", false, "exit nonzero if any publish stalled or any subscriber saw a sequence gap")
	readWait := flag.Duration("readwait", 2*time.Second, "subscriber read patience per frame before reconnecting (scale up with six-figure fleets: fan-out sweeps take longer than quiet-period detection)")
	sample := flag.Int("sample", 8, "record fan-out latency for every Nth reading per subscriber")
	jsonOut := flag.String("json", "", "write the report as JSON to this file (\"-\" = stdout)")
	flag.Parse()
	if *subs < 1 || *cycles < 1 || *sample < 1 {
		log.Fatal("vabload: -subs, -cycles and -sample must be positive")
	}

	switch *transport {
	case "auto":
		if *subs > tcpSubLimit {
			*transport = "mem"
		} else {
			*transport = "tcp"
		}
	case "tcp", "mem":
	default:
		log.Fatalf("vabload: unknown -transport %q (want tcp, mem or auto)", *transport)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Gateway, optionally behind the chaos wrapper.
	var ln net.Listener
	var memLn *netmem.Listener
	if *transport == "mem" {
		memLn = netmem.Listen("vabload", 0)
		ln = memLn
	} else {
		// Each subscriber costs two fds (dialer + accepted conn); raise the
		// soft limit toward the need, best-effort, before the ramp.
		need := uint64(2**subs + 64)
		if got := rlimit.RaiseNoFile(need); got < need {
			log.Printf("vabload: fd limit %d < %d needed for %d TCP subscribers; use -transport mem for large fleets", got, need, *subs)
		}
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("vabload: listen: %v", err)
		}
	}
	serveLn := ln
	if *netchaos != "" {
		prof, err := netfaults.Parse(*netchaos)
		if err != nil {
			log.Fatalf("vabload: %v", err)
		}
		eng, err := netfaults.NewEngine(*netseed, prof)
		if err != nil {
			log.Fatalf("vabload: %v", err)
		}
		serveLn = eng.Listen(ln)
	}
	srv := gateway.NewServerListener(ctx, serveLn, log.Printf)
	defer srv.Close()
	if *shards > 0 {
		srv.SetShards(*shards)
	}
	srv.SetBatching(*batch, *flush)
	srv.SetReplay(*replay)
	if *subs > tcpSubLimit {
		// A full fan-out sweep over a six-figure fleet outlasts the default
		// heartbeat budget; relax it so slow-but-progressing subscribers
		// aren't declared dead mid-soak.
		srv.SetHeartbeatPolicy(30*time.Second, 10)
	}
	reg := telemetry.NewRegistry()
	srv.Instrument(reg)
	addr := ln.Addr().String()
	dial := func(ctx context.Context, opts ...gateway.DialOption) (*gateway.Client, error) {
		if memLn == nil {
			return gateway.Dial(ctx, addr, opts...)
		}
		conn, err := memLn.Dial()
		if err != nil {
			return nil, err
		}
		c, err := gateway.NewClientConn(conn, opts...)
		if err != nil {
			conn.Close()
			return nil, err
		}
		return c, nil
	}

	// The feed: abstract-tier fleet on the calibrated link model.
	fleet, err := linksim.NewFleet(linksim.Config{
		Nodes: *nodes,
		Policy: mac.PollPolicy{
			MaxRetries: 2, DropAfter: 3,
			Probation: true, ProbeBackoffBase: 2, ProbeBackoffMax: 8,
		},
		Env:  "river",
		Seed: 4200,
	})
	if err != nil {
		log.Fatalf("vabload: fleet: %v", err)
	}
	defer fleet.Close()
	fleet.SetWorkers(runtime.NumCPU())

	// Subscribers.
	stats := make([]subStats, *subs)
	var live atomic.Int64
	var wg sync.WaitGroup
	subCtx, stopSubs := context.WithCancel(ctx)
	defer stopSubs()
	for i := 0; i < *subs; i++ {
		wg.Add(1)
		go func(st *subStats) {
			defer wg.Done()
			runSubscriber(subCtx, dial, *resume, *sample, *readWait, st, &live)
		}(&stats[i])
	}
	waitFor := func(n int64) {
		// Connection ramp scales with the fleet: give six-figure soaks
		// time to shake hands before declaring the missing stragglers.
		deadline := time.Now().Add(30*time.Second + time.Duration(*subs/1000)*time.Second)
		for live.Load() < n && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Under chaos some handshakes fail and retry; wait for most of the
	// fleet rather than all of it.
	want := int64(*subs)
	if *netchaos != "" {
		want = int64(*subs * 3 / 4)
	}
	waitFor(want)
	log.Printf("vabload: %d/%d subscribers connected, publishing %d cycles of ~%d nodes",
		live.Load(), *subs, *cycles, *nodes)

	// Publish: one gateway reading per delivered poll, stamped at publish
	// time so subscribers measure true fan-out latency. Publish is a
	// non-blocking enqueue by contract — a call held up longer than
	// stallAfter counts as a reader-loop stall (the soak wants zero).
	const stallAfter = 100 * time.Millisecond
	var published, stalls int64
	var maxPublish time.Duration
	seq := uint64(0)
	publishStart := time.Now()
	for c := 0; c < *cycles; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			log.Fatalf("vabload: cycle: %v", err)
		}
		for i := 0; i < rep.Delivered; i++ {
			seq++
			rd := gateway.Reading{
				NodeAddr:     byte(i%250 + 1),
				Seq:          byte(seq),
				Count:        uint32(seq),
				TempC:        15,
				PressureMbar: 1250,
				SNRdB:        rep.MeanSNRdB,
				Time:         time.Now().UTC(),
			}
			start := time.Now()
			if err := srv.Publish(rd); err != nil {
				log.Fatalf("vabload: publish: %v", err) // the feed's readings are always encodable
			}
			if d := time.Since(start); d > maxPublish {
				maxPublish = d
			}
			if time.Since(start) > stallAfter {
				stalls++
			}
			published++
		}
		time.Sleep(*interval)
	}
	srv.Flush()
	// Let the tail fan out: wait until the frames-sent counter goes quiet
	// (no growth for a second) rather than a fixed pause — a 100k-sub
	// sweep drains for tens of seconds after the last publish.
	framesSent := reg.Counter("vab_gateway_frames_sent_total", "")
	settleBudget := time.Now().Add(30*time.Second + time.Duration(*subs/1000)*time.Second)
	for last := int64(-1); time.Now().Before(settleBudget); {
		cur := framesSent.Value()
		if cur == last {
			break
		}
		last = cur
		time.Sleep(time.Second)
	}
	fanoutWindow := time.Since(publishStart)
	stopSubs()
	wg.Wait()

	// Aggregate.
	var all []float64
	rep := report{
		Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(),
		CPUs: runtime.NumCPU(), Transport: *transport, Shards: *shards,
		Subs: *subs, Cycles: *cycles, Nodes: *nodes,
		Resume: *resume, NetChaos: *netchaos,
		Published:    published,
		MaxPublishUs: float64(maxPublish) / float64(time.Microsecond),
		Stalls:       stalls,
		SlowEvicts:   reg.Counter("vab_gateway_slow_subscriber_drops_total", "").Value(),
		DeadEvicts:   reg.Counter("vab_gateway_dead_peer_drops_total", "").Value(),
		Replayed:     reg.Counter("vab_gateway_readings_replayed_total", "").Value(),
	}
	for i := range stats {
		st := &stats[i]
		rep.Delivered += st.delivered
		rep.Reconnects += st.reconnects
		rep.Gaps += st.gaps
		rep.ReplayLoss += st.replayLoss
		all = append(all, st.samples...)
	}
	if *subs > 0 {
		rep.MeanPerSub = float64(rep.Delivered) / float64(*subs)
	}
	sort.Float64s(all)
	rep.P50Ms, rep.P99Ms = percentile(all, 0.50), percentile(all, 0.99)
	if secs := fanoutWindow.Seconds(); secs > 0 {
		rep.FanoutMps = float64(rep.Delivered) / secs / 1e6
	}

	log.Printf("vabload: published %d, delivered %d (%.1f/sub) over %s via %s — %.2f M reading·subs/s, fan-out p50 %.2f ms p99 %.2f ms",
		rep.Published, rep.Delivered, rep.MeanPerSub, fanoutWindow.Round(time.Millisecond), *transport, rep.FanoutMps, rep.P50Ms, rep.P99Ms)
	log.Printf("vabload: max publish %.0f µs (stalls %d), reconnects %d, gaps %d, aged-out %d, evictions slow=%d dead=%d, replayed %d",
		rep.MaxPublishUs, rep.Stalls, rep.Reconnects, rep.Gaps, rep.ReplayLoss, rep.SlowEvicts, rep.DeadEvicts, rep.Replayed)

	if *jsonOut != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatalf("vabload: %v", err)
		}
		out = append(out, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonOut, out, 0o644); err != nil {
			log.Fatalf("vabload: %v", err)
		}
	}

	if *check && (rep.Stalls > 0 || rep.Gaps > 0) {
		log.Fatalf("vabload: check failed: %d publish stalls, %d gap readings (want zero of both)", rep.Stalls, rep.Gaps)
	}
}

// runSubscriber dials (and re-dials) until ctx ends, tallying deliveries,
// latency samples and sequence gaps.
func runSubscriber(ctx context.Context, dial func(context.Context, ...gateway.DialOption) (*gateway.Client, error), resume bool, sample int, readWait time.Duration, st *subStats, live *atomic.Int64) {
	var lastSeq uint64
	first := true
	for ctx.Err() == nil {
		opts := []gateway.DialOption{gateway.WithHandshakeTimeout(10 * time.Second)}
		if resume {
			opts = append(opts, gateway.WithResume(lastSeq))
		}
		c, err := dial(ctx, opts...)
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		if first {
			live.Add(1)
			first = false
		} else {
			st.reconnects++
		}
		stop := context.AfterFunc(ctx, func() { c.Close() })
		ackChecked := false
		got := false
		for {
			// The per-reading patience doubles as liveness detection, but a
			// session's FIRST reading can lag far behind the handshake: on a
			// six-figure ramp the publisher starts only once the whole fleet
			// is connected. Give the stream generous time to begin; apply
			// readWait once it has. Real connection errors surface
			// immediately either way.
			wait := readWait
			if !got {
				wait = max(readWait, 5*time.Minute)
			}
			rd, err := c.Next(time.Now().Add(wait))
			if err != nil {
				break
			}
			got = true
			st.delivered++
			if st.delivered%int64(sample) == 0 {
				st.samples = append(st.samples, float64(time.Since(rd.Time))/float64(time.Millisecond))
			}
			if resume && !ackChecked {
				if from, _, ok := c.ResumeWindow(); ok {
					ackChecked = true
					if lastSeq > 0 && from > lastSeq+1 {
						st.replayLoss += int64(from - lastSeq - 1)
					}
				}
			}
			// Every session is sequenced: a jump observes loss, which
			// resume sessions repair and plain ones only count.
			seq := c.LastSeq()
			if lastSeq > 0 && seq > lastSeq+1 {
				st.gaps += int64(seq - lastSeq - 1)
			}
			lastSeq = seq
		}
		stop()
		c.Close()
	}
}

// percentile returns the pth percentile of sorted samples (0 when empty).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
