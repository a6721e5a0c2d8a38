package experiments

import (
	"fmt"
	"time"

	"vab/internal/core"
	"vab/internal/gateway"
	"vab/internal/link"
	"vab/internal/mac"
	"vab/internal/node"
	"vab/internal/ocean"
	"vab/internal/sim"
)

// e13Batches is the payload-batch sweep: the v1 single-reading format,
// then packed payloads up to the largest batch a link frame carries.
var e13Batches = []int{1, 4, 6, node.MaxPackedBatch}

// e13Cell is one batch configuration's measured outcome.
type e13Cell struct {
	batch        int
	payloadBytes int
	frames       int
	readings     int
	v1WireBytes  int
	v2WireBytes  int
}

// retiredFrameBytesPerReading is the shore-side wire cost of one reading
// in the gateway's retired per-reading frame: a 9-byte frame header plus
// a 38-byte payload of float64 fields. E13 keeps it as the baseline the
// shipped MsgSeqBatch frame is measured against.
const retiredFrameBytesPerReading = 47

// e13BaseTime seeds the synthetic reading timestamps: experiments must
// not consult the wall clock, or seeded transcripts would differ per run.
const e13BaseTime = int64(1700000000000000000)

// runE13Cell polls a two-node river fleet for cycles cycles with the
// given sensor batch and accounts three per-reading costs: acoustic link
// payload bytes (the fixed frame payload over the readings it carried),
// and shore-side gateway wire bytes under the retired per-reading frame
// and the MsgSeqBatch frame the gateway ships. Timestamps are synthesized deterministically
// from the reading index, standing in for the poll clock.
func runE13Cell(batch, cycles int, seed int64, workers int) (e13Cell, error) {
	cell := e13Cell{batch: batch, payloadBytes: node.PayloadSize}
	if batch > 1 {
		cell.payloadBytes = node.PackedPayloadSize(batch)
	}
	env := ocean.CharlesRiver()
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		return cell, err
	}
	base := core.SystemConfig{Env: env, Design: design, Range: 1, Seed: seed}
	if batch > 1 {
		base.SensorBatch = batch
	}
	fleet, err := core.NewFleet(base, []core.NodePlacement{
		{Addr: 1, Range: 40},
		{Addr: 2, Range: 70, Orientation: 0.4},
	}, mac.DefaultPollPolicy())
	if err != nil {
		return cell, err
	}
	fleet.SetWorkers(workers)
	fleet.Deploy(3600)

	var batchBuf []byte
	var wire []gateway.Reading
	seqs := map[byte]byte{}
	nextSeq := uint64(1) // gateway stream sequence
	for c := 0; c < cycles; c++ {
		readings, rep, err := fleet.RunCycle()
		if err != nil {
			return cell, err
		}
		cell.frames += rep.Delivered
		cell.readings += len(readings)
		// Shore-side forwarding cost for this cycle's readings: the cycle
		// coalesces into sequenced batch frames (split on overflow),
		// matching a gateway flushing once per poll cycle.
		wire = wire[:0]
		for _, r := range readings {
			seqs[r.Addr]++
			wire = append(wire, gateway.Reading{
				NodeAddr: r.Addr, Seq: seqs[r.Addr], Count: r.Reading.Count,
				TempC: r.Reading.TempC, PressureMbar: r.Reading.PressureMbar,
				SNRdB: r.SNRdB,
				Time:  time.Unix(0, e13BaseTime+int64(cell.readings)*250e6).UTC(),
			})
		}
		cell.v1WireBytes += len(wire) * retiredFrameBytesPerReading
		for len(wire) > 0 {
			n := len(wire)
			for {
				batchBuf, err = gateway.AppendSeqBatch(batchBuf[:0], nextSeq, wire[:n])
				if err == gateway.ErrOversize && n > 1 {
					n /= 2
					continue
				}
				if err != nil {
					return cell, err
				}
				break
			}
			frame, err := gateway.EncodeFrame(gateway.MsgSeqBatch, batchBuf)
			if err != nil {
				return cell, err
			}
			cell.v2WireBytes += len(frame)
			wire = wire[n:]
			nextSeq += uint64(n)
		}
	}
	return cell, nil
}

// E13PackedPayloads regenerates the payload-batching table: delivered
// readings per response frame and bytes per reading — over the acoustic
// link and over the shore-side gateway wire — as the packed sensor batch
// grows from the v1 single-reading format to the largest batch a 64-byte
// link payload carries. The airtime story: a response frame costs a fixed
// poll regardless of payload, so batch k readings amortize the preamble,
// header and CRC k ways; the gateway's MsgSeqBatch wire then delta-codes
// each batch against its base reading. The v1 wire column is the retired
// per-reading frame's constant 47 B, kept as the baseline.
func E13PackedPayloads(opts Options) (*Result, error) {
	cycles := opts.trials(4)
	t := sim.NewTable(fmt.Sprintf(
		"E13 (R): Packed payload batching — readings per %d-byte link frame and bytes per reading", link.MaxPayload),
		"batch", "payload_B", "frames", "readings", "readings_per_frame",
		"link_B_per_reading", "v1_wire_B_per_reading", "v2_wire_B_per_reading", "wire_ratio")
	res := &Result{ID: "E13", Title: "Packed payload batching", Kind: "table", Table: t,
		Metrics: map[string]float64{}}

	for _, batch := range e13Batches {
		cell, err := runE13Cell(batch, cycles, opts.Seed+int64(batch)*7919, opts.workers())
		if err != nil {
			return nil, fmt.Errorf("E13 batch %d: %w", batch, err)
		}
		if cell.readings == 0 {
			return nil, fmt.Errorf("E13 batch %d: no readings delivered", batch)
		}
		rpf := float64(cell.readings) / float64(cell.frames)
		linkB := float64(cell.payloadBytes) / float64(batch)
		v1B := float64(cell.v1WireBytes) / float64(cell.readings)
		v2B := float64(cell.v2WireBytes) / float64(cell.readings)
		t.AddRowf(cell.batch, cell.payloadBytes, cell.frames, cell.readings,
			rpf, linkB, v1B, v2B, v1B/v2B)
		res.Metrics[fmt.Sprintf("readings_per_frame_b%d", batch)] = rpf
		res.Metrics[fmt.Sprintf("v2_wire_bytes_per_reading_b%d", batch)] = v2B
		res.Metrics[fmt.Sprintf("wire_ratio_b%d", batch)] = v1B / v2B
	}
	maxB := node.MaxPackedBatch
	res.Metrics["max_batch"] = float64(maxB)
	res.Notes = append(res.Notes,
		fmt.Sprintf("one %d-byte link payload carries up to %d delta-coded readings (worst-case packed size %d B)",
			link.MaxPayload, maxB, node.PackedPayloadSize(maxB)),
		fmt.Sprintf("gateway wire ratio at batch %d: %.1f× fewer bytes per reading than the retired per-reading frames",
			maxB, res.Metrics[fmt.Sprintf("wire_ratio_b%d", maxB)]))
	return res, nil
}
