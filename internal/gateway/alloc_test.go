package gateway

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The gateway broadcast hot path — encode readings, frame them, read
// them back — must not allocate in steady state: the reader publishes at
// poll rate for months, and the fan-out runs under the server mutex.
// These pins hold the append/into forms at zero allocations per op once
// their destination buffers are warm.

// TestAppendReadingAllocs pins the unbatched publish path: one reading
// encoded as a batch of one.
func TestAppendReadingAllocs(t *testing.T) {
	rds := []Reading{testReading()}
	buf := make([]byte, 0, MaxPayloadSize)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendSeqBatch(buf[:0], 1, rds)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendSeqBatch of one reading allocates %.1f/op, want 0", n)
	}
}

func TestAppendFrameAllocs(t *testing.T) {
	payload, err := AppendSeqBatch(nil, 1, []Reading{testReading()})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, MaxFrameSize)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendFrame(buf[:0], MsgSeqBatch, payload)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendFrame allocates %.1f/op, want 0", n)
	}
}

func TestBatchCodecAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rds := make([]Reading, 16)
	for i := range rds {
		rds[i] = quantizedReading(rng)
	}
	encBuf := make([]byte, 0, MaxPayloadSize)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		encBuf, err = AppendSeqBatch(encBuf[:0], 1000, rds)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendSeqBatch allocates %.1f/op, want 0", n)
	}
	payload, err := AppendSeqBatch(nil, 1000, rds)
	if err != nil {
		t.Fatal(err)
	}
	decBuf := make([]Reading, 0, len(rds))
	if n := testing.AllocsPerRun(200, func() {
		var err error
		decBuf, _, err = DecodeSeqBatchInto(decBuf[:0], payload)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeSeqBatchInto allocates %.1f/op, want 0", n)
	}
}

// TestUpstreamReadAllocs pins the subscriber readLoop's small buffer:
// pong and resume frames, the largest resume included, read into a
// buffer of upstreamBufSize without growing it or allocating.
func TestUpstreamReadAllocs(t *testing.T) {
	resume, err := EncodeFrame(MsgResume, AppendResume(nil, math.MaxUint64))
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), pongFrame...), resume...)
	r := bytes.NewReader(stream)
	buf := make([]byte, 0, upstreamBufSize)
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(stream)
		for _, want := range []MsgType{MsgPong, MsgResume} {
			typ, payload, err := ReadFrameBuf(r, buf)
			if err != nil || typ != want {
				t.Fatalf("read %v: %v, want %v", typ, err, want)
			}
			if cap(payload) > cap(buf) {
				t.Fatalf("%v frame grew the buffer to %d bytes", typ, cap(payload))
			}
		}
	}); n != 0 {
		t.Errorf("upstream reads allocate %.1f/op, want 0", n)
	}
}

func TestReadFrameBufAllocs(t *testing.T) {
	payload, err := AppendSeqBatch(nil, 1, []Reading{testReading()})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(MsgSeqBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	buf := make([]byte, 0, MaxFrameSize)
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, payload, err := ReadFrameBuf(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = payload[:0]
	}); n != 0 {
		t.Errorf("ReadFrameBuf allocates %.1f/op, want 0", n)
	}
}
