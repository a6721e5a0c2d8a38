package vab

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vab/internal/gateway"
	"vab/internal/link"
	"vab/internal/node"
)

// TestWireRoundTrip follows readings across every wire between a node's
// sensor and a shore subscriber: each node packs a batch into one packed
// payload, the payload crosses the full link codec (frame, Hamming FEC,
// interleaver, line code) and back, the reader unpacks it, and the
// gateway coalesces every node's readings into one sequenced batch that a
// subscriber decodes. Each stage may lose only what its format documents:
// the packed payload rounds temperature to 0.01 °C and pressure to 1 mbar,
// the link frame is lossless, and the gateway batch keeps node-quantized
// fields bit for bit (its grid is the same), rounds SNR to 0.01 dB and
// keeps timestamps to the nanosecond.
func TestWireRoundTrip(t *testing.T) {
	codec := link.DefaultCodec()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	roundTrip := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		firstSeq := 1 + uint64(rng.Int63n(1<<40))
		var sent, unpacked []node.Reading
		var wire []gateway.Reading
		for nodes := 1 + rng.Intn(2); nodes > 0; nodes-- {
			addr, frameSeq := byte(1+rng.Intn(254)), byte(rng.Intn(256))
			batch := make([]node.Reading, 1+rng.Intn(node.MaxPackedBatch))
			count := rng.Uint32() >> 1
			for i := range batch {
				batch[i] = node.Reading{
					Count:        count + uint32(i),
					TempC:        -5 + 45*rng.Float64(),
					PressureMbar: 900 + 64000*rng.Float64(),
				}
			}

			// Node: the packed payload, zero-padded to its fixed size.
			payload, err := node.AppendPacked(nil, batch)
			if err != nil {
				t.Errorf("seed %d: pack: %v", seed, err)
				return false
			}
			payload = append(payload, make([]byte, node.PackedPayloadSize(len(batch))-len(payload))...)

			// Link: chips out and back, bit for bit.
			chips, err := codec.EncodeFrame(&link.Frame{Type: link.FrameData, Addr: addr, Seq: frameSeq, Payload: payload})
			if err != nil {
				t.Errorf("seed %d: link encode: %v", seed, err)
				return false
			}
			f, stats, err := codec.DecodeFrame(chips)
			if err != nil || f.Type != link.FrameData || f.Addr != addr || f.Seq != frameSeq ||
				!bytes.Equal(f.Payload, payload) || stats.CorrectedBits != 0 {
				t.Errorf("seed %d: link frame came back %+v (%+v, %v), want addr %d seq %d payload %x",
					seed, f, stats, err, addr, frameSeq, payload)
				return false
			}

			// Reader: unpack, within the packed payload's quantization.
			got, ok := node.AppendDecodedReadings(nil, f.Payload)
			if !ok || len(got) != len(batch) {
				t.Errorf("seed %d: unpacked %d readings (ok %v), want %d", seed, len(got), ok, len(batch))
				return false
			}
			for i, rd := range got {
				want := batch[i]
				if rd.Count != want.Count || math.Abs(rd.TempC-want.TempC) > 0.005+1e-9 ||
					math.Abs(rd.PressureMbar-want.PressureMbar) > 0.5+1e-9 {
					t.Errorf("seed %d: reading %d unpacked as %+v, want %+v within 0.005 °C and 0.5 mbar", seed, i, rd, want)
					return false
				}
				wire = append(wire, gateway.Reading{
					NodeAddr: addr, Seq: frameSeq + byte(i), Count: rd.Count,
					TempC: rd.TempC, PressureMbar: rd.PressureMbar,
					SNRdB: -10 + 50*rng.Float64(),
					Time:  time.Unix(0, base+rng.Int63n(100e9)).UTC(),
				})
			}
			sent = append(sent, batch...)
			unpacked = append(unpacked, got...)
		}

		// Gateway: one sequenced batch for the cycle, as a subscriber
		// decodes it.
		p, err := gateway.AppendSeqBatch(nil, firstSeq, wire)
		if err != nil {
			t.Errorf("seed %d: batch encode: %v", seed, err)
			return false
		}
		out, seq, err := gateway.DecodeSeqBatchInto(nil, p)
		if err != nil || seq != firstSeq || len(out) != len(wire) {
			t.Errorf("seed %d: batch decoded %d readings from seq %d (%v), want %d from %d",
				seed, len(out), seq, err, len(wire), firstSeq)
			return false
		}
		for i, rd := range out {
			want := wire[i]
			if rd.NodeAddr != want.NodeAddr || rd.Seq != want.Seq || rd.Count != sent[i].Count ||
				math.Float64bits(rd.TempC) != math.Float64bits(unpacked[i].TempC) ||
				math.Float64bits(rd.PressureMbar) != math.Float64bits(unpacked[i].PressureMbar) ||
				math.Abs(rd.SNRdB-want.SNRdB) > 0.005+1e-9 || !rd.Time.Equal(want.Time) {
				t.Errorf("seed %d: reading %d decoded as %+v, want %+v (SNR within 0.005 dB)", seed, i, rd, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
