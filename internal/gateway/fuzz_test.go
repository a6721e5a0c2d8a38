package gateway

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReadFrame feeds arbitrary bytes to the wire-frame reader: it must
// reject garbage without panicking, and round-trip anything it accepts.
// Encoder and decoder share the MaxPayloadSize bound, so every accepted
// frame must be one the encoder could have produced.
func FuzzReadFrame(f *testing.F) {
	payload, _ := AppendSeqBatch(nil, 1, []Reading{testReading()})
	good, _ := EncodeFrame(MsgSeqBatch, payload)
	f.Add(good)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x56}, 64))
	// Boundary seeds: the largest encodable frame and a header one byte
	// past the shared payload bound.
	biggest, _ := EncodeFrame(MsgSeqBatch, make([]byte, MaxPayloadSize))
	f.Add(biggest)
	f.Add(oversizeHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) > MaxPayloadSize {
			t.Fatalf("accepted %d-byte payload beyond MaxPayloadSize=%d", len(payload), MaxPayloadSize)
		}
		re, err := EncodeFrame(typ, payload)
		if err != nil {
			t.Fatalf("accepted frame failed to encode: %v", err)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("frame prefix mismatch")
		}
	})
}

// oversizeHeader builds a well-formed header announcing MaxPayloadSize+1
// payload bytes (and supplies them), which the decoder must reject.
func oversizeHeader() []byte {
	hdr := binary.BigEndian.AppendUint32(nil, Magic)
	hdr = append(hdr, byte(MsgSeqBatch))
	hdr = binary.BigEndian.AppendUint32(hdr, MaxPayloadSize+1)
	return append(hdr, make([]byte, MaxPayloadSize+1)...)
}

// FuzzBatchDecode hammers the block codec (the MsgSeqBatch body after
// its sequence prefix) with arbitrary payloads: it must never panic, and
// any payload it accepts must survive a re-encode/re-decode cycle with
// identical readings. Its seeds also start FuzzSeqBatchDecode, which
// reaches the same decoder through the whole frame payload. The decoder's
// strict full-consumption and range rules keep the accepted set inside
// what the encoder can reproduce (modulo non-canonical varints, which
// re-encode canonically — hence a semantic, not byte, round trip).
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range blockSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rds, err := decodeBlockInto(nil, p)
		if err != nil {
			return
		}
		if len(rds) == 0 {
			t.Fatal("accepted payload produced zero readings")
		}
		re, err := appendBlock(nil, rds)
		if err != nil {
			t.Fatalf("accepted readings failed to re-encode: %v", err)
		}
		rds2, err := decodeBlockInto(nil, re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if len(rds2) != len(rds) {
			t.Fatalf("re-decode count %d, want %d", len(rds2), len(rds))
		}
		for i := range rds {
			if !rds2[i].Time.Equal(rds[i].Time) {
				t.Fatalf("reading %d time mismatch: %v vs %v", i, rds2[i].Time, rds[i].Time)
			}
			a, b := rds[i], rds2[i]
			a.Time, b.Time = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("reading %d mismatch:\n got  %+v\n want %+v", i, b, a)
			}
		}
	})
}

// blockSeeds is the block-codec seed corpus: one- and two-reading
// blocks, then the empty, zero-count and truncated edge cases.
func blockSeeds() [][]byte {
	one, _ := appendBlock(nil, []Reading{testReading()})
	rd2 := testReading()
	rd2.Seq++
	rd2.Count++
	rd2.TempC += 0.07
	rd2.Time = rd2.Time.Add(250 * time.Millisecond)
	two, _ := appendBlock(nil, []Reading{testReading(), rd2})
	return [][]byte{one, two, {}, {1}, {2, 0, 0, 0}}
}
