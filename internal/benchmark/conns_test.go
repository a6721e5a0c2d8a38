package benchmark

import (
	"bytes"
	"testing"
	"time"

	"vab/internal/gateway"
)

// TestRecordHandshake: the recorded bytes are the frames a real resume
// client sends — its protocol upgrade, then the resume request.
func TestRecordHandshake(t *testing.T) {
	hs, err := recordHandshake(gateway.WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(hs)
	typ, payload, err := gateway.ReadFrame(r)
	if err != nil || typ != gateway.MsgHello || len(payload) != 1 || payload[0] != gateway.ProtocolV2 {
		t.Fatalf("first frame = %d %v (%v), want the v2 hello", typ, payload, err)
	}
	typ, payload, err = gateway.ReadFrame(r)
	if err != nil || typ != gateway.MsgResume {
		t.Fatalf("second frame = %d (%v), want a resume request", typ, err)
	}
	if last, err := gateway.DecodeResume(payload); err != nil || last != 0 {
		t.Fatalf("resume from %d (%v), want 0", last, err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the handshake", r.Len())
	}
}

// TestSinksMatchProbe: a sink replaying the recorded handshake receives
// exactly the bytes a real client does, so a short sink means loss.
func TestSinksMatchProbe(t *testing.T) {
	g, err := newRig(4, 1, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	p := g.probes[0]
	const n = 40 // two full batches and a partial one
	for seq := uint64(1); seq <= n; seq++ {
		g.srv.Publish(expectedReading(5, seq, int64(seq)*1000))
	}
	g.srv.Flush()
	for seq := uint64(1); seq <= n; seq++ {
		rd, err := p.client.Next(time.Now().Add(10 * time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if want := expectedReading(5, seq, int64(seq)*1000); p.client.LastSeq() != seq || !sameReading(rd, want) {
			t.Fatalf("reading %d: got %+v (seq %d), want %+v", seq, rd, p.client.LastSeq(), want)
		}
	}
	want := p.conn.bytes.Load()
	deadline := time.Now().Add(10 * time.Second)
	for _, s := range g.sinks {
		for s.bytes.Load() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := s.bytes.Load(); got != want {
			t.Fatalf("sink received %d bytes, probe %d", got, want)
		}
	}
}
