// Operator workflow: managing a deployed VAB node over the acoustic link —
// the full command set in one session. The operator pings the node, ranges
// it by time of flight, stretches its reporting interval to save energy,
// and finally mutes it for maintenance. Everything travels through the
// simulated channel and the real DSP on both ends.
//
//	go run ./examples/operator
package main

import (
	"fmt"
	"log"
	"math"

	"vab/internal/core"
	"vab/internal/node"
	"vab/internal/ocean"
)

func main() {
	env := ocean.CharlesRiver()
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{
		Env: env, Design: design,
		Range:       75,
		Orientation: 20 * math.Pi / 180,
		NodeAddr:    12,
		Seed:        8,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys.WakeNode(3600)

	// 1. Ping: is the node alive?
	acked := false
	for i := 0; i < 5 && !acked; i++ {
		var err error
		acked, err = sys.RunCommandRound(node.PingPayload())
		if err != nil {
			log.Fatal(err)
		}
		sys.WakeNode(30)
	}
	fmt.Printf("ping node 12: acked=%v\n", acked)

	// 2. Range it: where is it? (time-of-flight off the backscatter burst)
	for i := 0; i < 5; i++ {
		rep, err := sys.RunRangingRound()
		if err != nil {
			log.Fatal(err)
		}
		if rep.Rx.OK() {
			fmt.Printf("ranging: %.2f m (truth %.2f m, error %.2f m)\n",
				rep.EstimatedRange, rep.TrueRange, math.Abs(rep.EstimatedRange-rep.TrueRange))
			break
		}
		sys.WakeNode(30)
	}

	// 3. Read a sample.
	for i := 0; i < 5; i++ {
		rep, err := sys.RunRound()
		if err != nil {
			log.Fatal(err)
		}
		if rep.Rx.OK() {
			rd, _ := node.DecodeReading(rep.Rx.Frame.Payload)
			fmt.Printf("reading: %.2f °C, %.0f mbar\n", rd.TempC, rd.PressureMbar)
			break
		}
		sys.WakeNode(30)
	}

	// 4. Stretch the reporting interval: answer at most every 10 minutes.
	for i := 0; i < 5; i++ {
		acked, err := sys.RunCommandRound(node.SetIntervalPayload(600))
		if err != nil {
			log.Fatal(err)
		}
		if acked {
			break
		}
		sys.WakeNode(30)
	}
	fmt.Printf("report interval now %.0f s; polls inside the window are declined\n",
		sys.Node.ReportInterval())
	rep, err := sys.RunRound()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("immediate re-poll answered: %v (energy preserved)\n", rep.Rx.OK())

	// 5. Mute for maintenance: radio silence, unacknowledged by design.
	if _, err := sys.RunCommandRound(node.MutePayload(3600)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("muted: %v — the node will stay dark for an hour of node-clock time\n", sys.Node.Muted())
}
