// Coastal monitoring: a small VAB sensor network — several battery-free
// nodes at different ranges and orientations, a polling MAC with retries,
// and a TCP gateway streaming decoded readings to a subscriber. This is the
// application the paper's introduction motivates.
//
//	go run ./examples/coastal
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vab/internal/core"
	"vab/internal/gateway"
	"vab/internal/mac"
	"vab/internal/ocean"
)

func main() {
	env := ocean.CharlesRiver()
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		log.Fatal(err)
	}

	// Deploy four nodes at different ranges/orientations; thanks to
	// retrodirectivity, orientation is a non-issue.
	fleet, err := core.NewFleet(
		core.SystemConfig{Env: env, Design: design, Range: 1, Seed: 100},
		[]core.NodePlacement{
			{Addr: 1, Range: 40},
			{Addr: 2, Range: 80, Orientation: 25 * 3.14159 / 180},
			{Addr: 3, Range: 120, Orientation: 50 * 3.14159 / 180},
			{Addr: 4, Range: 160, Orientation: -35 * 3.14159 / 180},
		},
		mac.DefaultPollPolicy(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fleet.Deploy(3600)

	// Shore-side gateway plus one resilient subscriber.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv, err := gateway.NewServer(ctx, "127.0.0.1:0", log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	out := make(chan gateway.Reading, 32)
	subCtx, subCancel := context.WithCancel(ctx)
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		gateway.Subscribe(subCtx, srv.Addr().String(), out)
	}()
	printed := make(chan struct{})
	go func() {
		defer close(printed)
		for rd := range out {
			fmt.Printf("  shore: node %d #%d  %.2f °C  %.0f mbar  (SNR %.1f dB)\n",
				rd.NodeAddr, rd.Count, rd.TempC, rd.PressureMbar, rd.SNRdB)
		}
	}()

	// Three polling cycles.
	for cycle := 1; cycle <= 3; cycle++ {
		readings, rep, err := fleet.RunCycle()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cycle %d: delivered %d/%d (retries %d)\n",
			cycle, rep.Delivered, rep.Polled, rep.Retries)
		for _, r := range readings {
			err := srv.Publish(gateway.Reading{
				NodeAddr: r.Addr, Count: r.Reading.Count,
				TempC: r.Reading.TempC, PressureMbar: r.Reading.PressureMbar,
				SNRdB: r.SNRdB, Time: time.Now().UTC(),
			})
			if err != nil {
				log.Printf("node %d reading dropped: %v", r.Addr, err)
			}
		}
		time.Sleep(150 * time.Millisecond) // let the subscriber drain
	}

	subCancel()
	<-subDone
	<-printed
	fmt.Println("delivery ratios:")
	for _, n := range fleet.Nodes() {
		fmt.Printf("  node %d: %.0f%% (%d polls)\n", n.Addr,
			100*float64(n.Successes)/float64(n.Polls), n.Polls)
	}
}
