// Command vabgw runs a simulated VAB deployment and serves its decoded
// sensor readings over TCP: the shore-side gateway of the coastal
// monitoring application. Subscribers connect with the gateway protocol
// (see internal/gateway) or the examples/coastal client.
//
// Usage:
//
//	vabgw -listen 127.0.0.1:7070 -nodes 4 -interval 2s
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vab/internal/channel"
	"vab/internal/core"
	"vab/internal/dsp"
	"vab/internal/faults/netfaults"
	"vab/internal/gateway"
	"vab/internal/mac"
	"vab/internal/ocean"
	"vab/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "gateway listen address")
	nodes := flag.Int("nodes", 3, "number of deployed nodes")
	interval := flag.Duration("interval", 2*time.Second, "polling cycle interval")
	duration := flag.Duration("duration", 0, "exit after this long (0 = run until signal)")
	envName := flag.String("env", "river", "environment: river or ocean")
	workers := flag.Int("workers", runtime.NumCPU(), "worker goroutines per polling cycle (node rounds run concurrently; cycle output is bit-identical at any count)")
	metricsAddr := flag.String("metrics", "", "ops endpoint address for /metrics, /healthz and pprof (empty = telemetry off)")
	packed := flag.Int("packed", 0, "node payload batch: ≤1 = v1 single-reading payloads, 2..8 = packed multi-reading payloads (readings per response frame)")
	batch := flag.Int("batch", 1, "gateway broadcast coalescing: readings per flush (1 = publish immediately, one reading per batch frame)")
	flush := flag.Duration("flush", 25*time.Millisecond, "gateway flush deadline for a partial batch")
	heartbeat := flag.Duration("heartbeat", gateway.DefaultHeartbeat, "heartbeat ping period for idle subscribers")
	hbMiss := flag.Int("heartbeat-miss", gateway.DefaultHeartbeatMiss, "missed heartbeat periods before a silent peer is evicted")
	replay := flag.Int("replay", gateway.DefaultReplayWindow, "replay ring size backing session resume, in readings (0 disables resume)")
	drain := flag.Duration("drain", gateway.DefaultDrainTimeout, "graceful-drain budget on shutdown: time allowed to flush pending frames and goodbyes")
	shards := flag.Int("shards", 0, "subscriber registry shards (0 = one per CPU; more shards spread fan-out across cores)")
	netchaos := flag.String("netchaos", "", "wrap the listener in a seeded netfaults profile (e.g. \"chaos:0.25\", \"blips+lossy\"; empty = clean network; for resilience drills)")
	netseed := flag.Int64("netseed", 1, "netfaults schedule seed (injections are pure functions of seed, connection and op index)")
	flag.Parse()

	var env *ocean.Environment
	switch *envName {
	case "river":
		env = ocean.CharlesRiver()
	case "ocean":
		env = ocean.AtlanticCoastal()
	default:
		log.Fatalf("vabgw: unknown environment %q", *envName)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		log.Fatalf("vabgw: %v", err)
	}
	placements := make([]core.NodePlacement, *nodes)
	for i := range placements {
		placements[i] = core.NodePlacement{
			Addr:        byte(i + 1),
			Range:       40 + 30*float64(i), // nodes staggered outward
			Orientation: float64(i) * 0.3,
		}
	}
	fleet, err := core.NewFleet(
		core.SystemConfig{Env: env, Design: design, Range: 1, Seed: 1000, SensorBatch: *packed},
		placements, mac.DefaultPollPolicy(),
	)
	if err != nil {
		log.Fatalf("vabgw: %v", err)
	}
	defer fleet.Close()
	fleet.SetWorkers(*workers)
	fleet.Deploy(3600)

	var srv *gateway.Server
	if *netchaos != "" {
		prof, err := netfaults.Parse(*netchaos)
		if err != nil {
			log.Fatalf("vabgw: %v", err)
		}
		eng, err := netfaults.NewEngine(*netseed, prof)
		if err != nil {
			log.Fatalf("vabgw: %v", err)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("vabgw: %v", err)
		}
		srv = gateway.NewServerListener(ctx, eng.Listen(ln), log.Printf)
		log.Printf("vabgw: netfaults %q active on the listener (seed %d)", *netchaos, *netseed)
	} else {
		srv, err = gateway.NewServer(ctx, *listen, log.Printf)
		if err != nil {
			log.Fatalf("vabgw: %v", err)
		}
	}
	defer srv.Close()
	if *shards > 0 {
		srv.SetShards(*shards)
	}
	srv.SetBatching(*batch, *flush)
	srv.SetHeartbeatPolicy(*heartbeat, *hbMiss)
	srv.SetReplay(*replay)
	srv.SetDrainTimeout(*drain)
	log.Printf("vabgw: serving %d nodes (%s) on %s", *nodes, env.Name, srv.Addr())

	// Telemetry is off (free no-ops everywhere) unless -metrics names an
	// ops address.
	if *metricsAddr != "" {
		reg := telemetry.NewRegistry()
		ops, err := telemetry.Serve(ctx, *metricsAddr, reg)
		if err != nil {
			log.Fatalf("vabgw: metrics endpoint: %v", err)
		}
		defer ops.Close()
		dsp.Instrument(reg)
		channel.Instrument(reg)
		fleet.Instrument(reg)
		srv.Instrument(reg)
		log.Printf("vabgw: metrics on http://%s/metrics", ops.Addr())
	}

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	seqs := map[byte]byte{}
	for {
		select {
		case <-ctx.Done():
			log.Printf("vabgw: shutting down")
			return
		case <-ticker.C:
			readings, rep, err := fleet.RunCycle()
			if err != nil {
				log.Printf("vabgw: cycle: %v", err)
				continue
			}
			for _, r := range readings {
				err := srv.Publish(gateway.Reading{
					NodeAddr:     r.Addr,
					Seq:          seqs[r.Addr],
					Count:        r.Reading.Count,
					TempC:        r.Reading.TempC,
					PressureMbar: r.Reading.PressureMbar,
					SNRdB:        r.SNRdB,
					Time:         time.Now().UTC(),
				})
				if err != nil {
					log.Printf("vabgw: node %d reading dropped: %v", r.Addr, err)
				}
				seqs[r.Addr]++
			}
			log.Printf("vabgw: cycle delivered %d/%d (subscribers: %d)",
				rep.Delivered, rep.Polled, srv.Subscribers())
		}
	}
}
