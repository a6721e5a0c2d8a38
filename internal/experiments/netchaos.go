package experiments

import (
	"fmt"
	"time"

	"vab/internal/faults/netfaults"
	"vab/internal/gateway"
	"vab/internal/sim"
	"vab/internal/workpool"
)

// E14 models the shore-side delivery path under network chaos: a gateway
// session streaming sequence-numbered reading batches through the
// netfaults schedule, with the resume protocol off (a disconnect loses
// the gap) versus on (the replay ring recovers it, up to the window).
//
// The model is arithmetic, not sockets: each frame write consults the
// same pure (seed, conn, op) schedule the live netfaults.Conn wrapper
// uses (Engine.WriteOp), payloads run through the real MsgSeqBatch
// codec, and reconnect recovery runs through the real gateway.ReplayRing
// — but no goroutine, socket or wall clock is involved, so transcripts
// are byte-identical at any worker count. The live-TCP incarnation of
// the same machinery is exercised by the gateway churn soak test, which
// checks every reading's sequence and content but is not byte-compared.
var e14Intensities = chaosIntensities // share E11's sweep axis

const (
	// e14Batch is the readings coalesced per MsgSeqBatch frame.
	e14Batch = 4
	// e14RingWindow is the modeled replay ring capacity: small enough
	// that sustained chaos at high intensity overflows it, exercising the
	// aged-out fallback to live-only delivery.
	e14RingWindow = 32
	// e14BaseTime seeds synthetic reading timestamps (no wall clock in
	// experiments, like E13).
	e14BaseTime = int64(1700000000000000000)
)

// netchaosCell is one (intensity × resume arm) outcome.
type netchaosCell struct {
	intensity float64
	resume    bool

	published int
	delivered int
	replayed  int
	agedOut   int // readings permanently lost to ring age-out (resume arm)
	sessions  int
	drops     int
	tears     int
	corrupts  int
	delayMs   float64
	writes    int
}

func (c *netchaosCell) deliveryRatio() float64 {
	if c.published == 0 {
		return 0
	}
	return float64(c.delivered) / float64(c.published)
}

func (c *netchaosCell) meanDelayMs() float64 {
	if c.writes == 0 {
		return 0
	}
	return c.delayMs / float64(c.writes)
}

// e14Reading synthesizes the reading published under seq.
func e14Reading(seq uint64) gateway.Reading {
	return gateway.Reading{
		NodeAddr:     byte(seq%4 + 1),
		Seq:          byte(seq),
		Count:        uint32(seq),
		TempC:        15 + float64(seq%40)*0.25,
		PressureMbar: 1200 + float64(seq%300),
		SNRdB:        12 + float64(seq%16)*0.5,
		Time:         time.Unix(0, e14BaseTime+int64(seq)*1e6).UTC(),
	}
}

// runNetchaosCell streams `readings` readings through one modeled
// session. Both arms of one intensity share the engine seed, so they
// face the same storm and differ only in the recovery protocol.
func runNetchaosCell(seed int64, intensity float64, resume bool, readings int) (netchaosCell, error) {
	cell := netchaosCell{intensity: intensity, resume: resume, sessions: 1}
	eng, err := netfaults.NewEngine(seed, netfaults.Chaos(intensity))
	if err != nil {
		return cell, err
	}
	ring := gateway.NewReplayRing(e14RingWindow)

	conn, op := uint64(0), uint64(0)
	var lastSeq uint64 // last sequence the subscriber has
	connected := true
	outage := 0 // flushes remaining before the subscriber is back
	// Outage length scales with intensity: a rougher network also slows
	// the re-dial (backoff under repeated failures).
	outageFlushes := 1 + int(4*intensity)

	// sendFrame pushes one sequenced frame through the chaos schedule;
	// false means the session died mid-frame (nothing delivered).
	sendFrame := func() bool {
		o := eng.WriteOp(conn, op)
		op++
		cell.writes++
		cell.delayMs += o.DelayMs
		switch {
		case o.Drop:
			cell.drops++
			return false
		case o.Partial:
			cell.tears++
			return false
		case o.Corrupt:
			// No integrity check in the wire format: model the corrupted
			// frame as detected by the codec's strict decode rules (the
			// common case) — the subscriber abandons the session.
			cell.corrupts++
			return false
		}
		return true
	}
	disconnect := func() {
		connected = false
		outage = outageFlushes
		conn++ // a re-dial is a fresh connection with a fresh schedule
		op = 0
	}

	next := uint64(1)
	for int(next) <= readings {
		// Publish one flush worth of readings into the ring.
		pendFirst := next
		for next-pendFirst < e14Batch && int(next) <= readings {
			ring.Append(next, e14Reading(next))
			next++
		}
		cell.published += int(next - pendFirst)

		if !connected {
			outage--
			if outage > 0 {
				continue // still re-dialing; the stream moves on without us
			}
			connected = true
			cell.sessions++
			if resume {
				// Replay everything recoverable, including this flush
				// (it is already in the ring).
				buf, firstSeq := ring.Since(lastSeq, nil)
				if firstSeq > lastSeq+1 {
					cell.agedOut += int(firstSeq - lastSeq - 1)
				}
				ok := true
				for off := 0; off < len(buf) && ok; off += e14Batch {
					end := off + e14Batch
					if end > len(buf) {
						end = len(buf)
					}
					if sendFrame() {
						cell.replayed += end - off
						cell.delivered += end - off
						lastSeq = firstSeq + uint64(end) - 1
					} else {
						disconnect()
						ok = false
					}
				}
				continue // current flush was part of the replay (or died)
			}
			// Live-only: the outage gap is gone; rejoin at the stream head.
			if pendFirst-1 > lastSeq {
				lastSeq = pendFirst - 1
			}
		}

		if sendFrame() {
			cell.delivered += int(next - pendFirst)
			lastSeq = next - 1
		} else {
			disconnect()
		}
	}
	return cell, nil
}

// E14NetChaos runs the network-chaos campaign: delivery through the
// shore-side gateway session versus chaos intensity, with session resume
// off and on. Opt-in like E11–E13 (run with `-exp e14`), and fully
// deterministic: every schedule derives from Options.Seed through the
// netfaults pure-plan engine, so two invocations are byte-identical at
// any -workers — the property the netchaos CI leg checks.
func E14NetChaos(opts Options) (*Result, error) {
	readings := opts.trials(2000)

	type job struct {
		intensity float64
		resume    bool
		seed      int64
	}
	var jobs []job
	for i, in := range e14Intensities {
		for _, res := range []bool{false, true} {
			// Shared seed per intensity: both arms face the same storm.
			jobs = append(jobs, job{in, res, opts.Seed + 4100 + int64(i)*53})
		}
	}
	cells := make([]netchaosCell, len(jobs))
	err := workpool.Run(len(jobs), opts.workers(), "e14_cell", func(i int) error {
		j := jobs[i]
		c, err := runNetchaosCell(j.seed, j.intensity, j.resume, readings)
		if err != nil {
			return fmt.Errorf("netchaos cell %d: %w", i, err)
		}
		cells[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := sim.NewTable(fmt.Sprintf("E14: Network chaos — gateway delivery over %d readings/cell, resume off vs on (ring %d)",
		readings, e14RingWindow),
		"intensity", "resume", "delivery_pct", "replayed", "aged_out", "sessions",
		"faults", "mean_delay_ms")
	res := &Result{ID: "E14", Title: "Network chaos campaign", Kind: "table", Table: t,
		Metrics: map[string]float64{}}

	var sumOff, sumOn float64
	var faulted int
	for i := range cells {
		c := &cells[i]
		arm := "off"
		if c.resume {
			arm = "on"
		}
		t.AddRowf(c.intensity, arm, 100*c.deliveryRatio(), c.replayed, c.agedOut,
			c.sessions, c.drops+c.tears+c.corrupts, c.meanDelayMs())
		res.Metrics[fmt.Sprintf("delivery_%s_%.2f", arm, c.intensity)] = c.deliveryRatio()
		if c.intensity > 0 {
			if c.resume {
				sumOn += c.deliveryRatio()
			} else {
				sumOff += c.deliveryRatio()
			}
			faulted++
		}
	}
	n := float64(faulted) / 2
	res.Metrics["mean_faulted_delivery_off"] = sumOff / n
	res.Metrics["mean_faulted_delivery_on"] = sumOn / n
	res.Metrics["resume_gain"] = (sumOn - sumOff) / n
	res.Notes = append(res.Notes,
		fmt.Sprintf("mean delivery under chaos: %.0f%% live-only, %.0f%% with resume (gain %+.0f pts)",
			100*res.Metrics["mean_faulted_delivery_off"],
			100*res.Metrics["mean_faulted_delivery_on"],
			100*res.Metrics["resume_gain"]),
		"resume stack: stream sequencing + server replay ring + MsgResume/MsgSeqBatch recovery (see DESIGN.md gateway resilience contract)",
		"schedule: netfaults pure (seed, conn, op) plans — the same draws a live netfaults.Conn would make")
	return res, nil
}
