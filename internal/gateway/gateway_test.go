package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// testReading is on the wire's quantization grid (0.01 °C, 1 mbar,
// 0.01 dB), so it survives the wire exactly.
func testReading() Reading {
	return Reading{
		NodeAddr: 7, Seq: 3, Count: 99,
		TempC: 15.25, PressureMbar: 1294, SNRdB: 18.75,
		Time: time.Unix(0, 1700000000123456789).UTC(),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3}
	frame, err := EncodeFrame(MsgSeqBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgSeqBatch || !bytes.Equal(got, payload) {
		t.Errorf("round trip: %v %v", typ, got)
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := EncodeFrame(MsgSeqBatch, make([]byte, MaxFrameSize)); !errors.Is(err, ErrOversize) {
		t.Error("oversize not rejected")
	}
	bad := []byte{0, 0, 0, 0, 1, 0, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Oversize length field.
	frame, _ := EncodeFrame(MsgSeqBatch, []byte{1})
	frame[5] = 0xFF
	if _, _, err := ReadFrame(bytes.NewReader(frame)); !errors.Is(err, ErrOversize) {
		t.Error("oversize length accepted")
	}
	// Truncated payload.
	frame2, _ := EncodeFrame(MsgSeqBatch, []byte{1, 2, 3, 4})
	if _, _, err := ReadFrame(bytes.NewReader(frame2[:len(frame2)-2])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncation: %v", err)
	}
}

func TestFramePayloadBoundary(t *testing.T) {
	// Encoder and decoder must agree on the exact payload bound: a frame
	// of MaxPayloadSize round-trips, one byte more is rejected by both.
	frame, err := EncodeFrame(MsgSeqBatch, make([]byte, MaxPayloadSize))
	if err != nil {
		t.Fatalf("encode at MaxPayloadSize: %v", err)
	}
	if len(frame) != MaxFrameSize {
		t.Errorf("largest frame is %d bytes, want MaxFrameSize=%d", len(frame), MaxFrameSize)
	}
	if _, payload, err := ReadFrame(bytes.NewReader(frame)); err != nil || len(payload) != MaxPayloadSize {
		t.Errorf("decode at MaxPayloadSize: len=%d err=%v", len(payload), err)
	}
	if _, err := EncodeFrame(MsgSeqBatch, make([]byte, MaxPayloadSize+1)); !errors.Is(err, ErrOversize) {
		t.Errorf("encode beyond bound: %v", err)
	}
	// A handcrafted header announcing one payload byte too many must be
	// rejected even though it is under MaxFrameSize+header: the decoder
	// may not admit frames the encoder cannot produce.
	over := frame[:9:9]
	binary.BigEndian.PutUint32(over[5:9], MaxPayloadSize+1)
	over = append(over, make([]byte, MaxPayloadSize+1)...)
	if _, _, err := ReadFrame(bytes.NewReader(over)); !errors.Is(err, ErrOversize) {
		t.Errorf("decode beyond bound: %v", err)
	}
}

// TestReadingRoundTrip: an unbatched reading goes out as a batch of one
// and decodes to itself when it is on the wire grid, and to its nearest
// grid point otherwise.
func TestReadingRoundTrip(t *testing.T) {
	rd := testReading()
	off := rd
	off.TempC, off.PressureMbar, off.SNRdB = 15.254, 1294.4, 18.746
	for _, in := range []Reading{rd, off} {
		p, err := AppendSeqBatch(nil, 1, []Reading{in})
		if err != nil {
			t.Fatal(err)
		}
		got, first, err := DecodeSeqBatchInto(nil, p)
		if err != nil || first != 1 || len(got) != 1 {
			t.Fatalf("decode: first=%d n=%d err=%v", first, len(got), err)
		}
		if got[0] != rd {
			t.Errorf("round trip of %+v:\n got %+v\nwant %+v", in, got[0], rd)
		}
	}
	if _, _, err := DecodeSeqBatchInto(nil, []byte{1, 2}); err == nil {
		t.Error("short payload accepted")
	}
}

func TestReadingRoundTripProperty(t *testing.T) {
	// Any reading on the wire grid survives the trip exactly, at any
	// stream sequence.
	f := func(addr, seq byte, count uint32, centi, mbar, centiSNR int32, ns int64, first uint64) bool {
		grid := func(v int32) int64 { return max(int64(v), -math.MaxInt32) }
		rd := Reading{
			NodeAddr: addr, Seq: seq, Count: count,
			TempC: float64(grid(centi)) / 100, PressureMbar: float64(grid(mbar)),
			SNRdB: float64(grid(centiSNR)) / 100,
			Time:  time.Unix(0, ns).UTC(),
		}
		first = max(first, 1)
		p, err := AppendSeqBatch(nil, first, []Reading{rd})
		if err != nil {
			return false
		}
		got, gotFirst, err := DecodeSeqBatchInto(nil, p)
		return err == nil && gotFirst == first && len(got) == 1 && got[0] == rd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func startServer(t *testing.T) (*Server, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); cancel() })
	return s, cancel
}

func TestServerPublishToClient(t *testing.T) {
	s, _ := startServer(t)
	c, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitSubscribers(t, s, 1)
	want := testReading()
	s.Publish(want)
	got, err := c.Next(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
}

func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Subscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d subscribers", s.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestServerMultipleSubscribers(t *testing.T) {
	s, _ := startServer(t)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(context.Background(), s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	waitSubscribers(t, s, 3)
	s.Publish(testReading())
	for i, c := range clients {
		if _, err := c.Next(time.Now().Add(5 * time.Second)); err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

func TestServerHeartbeats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetHeartbeatPolicy(20*time.Millisecond, 0) // before any client connects

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hello, then heartbeats with no published readings.
	typ, _, err := ReadFrame(conn)
	if err != nil || typ != MsgHello {
		t.Fatalf("hello: %v %v", typ, err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, _, err = ReadFrame(conn)
	if err != nil || typ != MsgHeartbeat {
		t.Fatalf("heartbeat: %v %v", typ, err)
	}
}

func TestServerDropsSlowSubscriber(t *testing.T) {
	s, _ := startServer(t)
	// Raw connection that never reads beyond the handshake.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitSubscribers(t, s, 1)
	// Saturate: the per-subscriber queue holds sendBuffer frames; the
	// socket buffers absorb more, but the queue eventually jams because
	// nothing drains the connection... the serve loop keeps writing into
	// the kernel buffer, so flood well past both.
	for i := 0; i < 100000 && s.Subscribers() > 0; i++ {
		s.Publish(testReading())
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never dropped")
		}
		s.Publish(testReading())
	}
}

func TestServerCloseIdempotentAndCleans(t *testing.T) {
	ctx := context.Background()
	s, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ctx, s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if s.Subscribers() != 0 {
		t.Error("subscribers survived close")
	}
	// The client should observe EOF or reset.
	if _, err := c.Next(time.Now().Add(5 * time.Second)); err == nil {
		t.Error("client read succeeded after server close")
	}
	// Publishing after close must not panic.
	s.Publish(testReading())
}

func TestServerContextCancelStopsAccept(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr().String()
	cancel()
	// After cancellation new dials must fail (listener closed).
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDialRejectsNonGateway(t *testing.T) {
	// A server that speaks garbage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("HTTP/1.1 200 OK\r\n\r\n"))
		conn.Close()
	}()
	if _, err := Dial(context.Background(), ln.Addr().String()); err == nil {
		t.Error("garbage handshake accepted")
	}
}

func TestSubscribeSurvivesServerRestart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s1, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr().String()

	out := make(chan Reading, 16)
	subCtx, subCancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Subscribe(subCtx, addr, out)
	}()

	waitSubscribers(t, s1, 1)
	s1.Publish(testReading())
	select {
	case rd := <-out:
		if rd.NodeAddr != 7 {
			t.Errorf("reading %+v", rd)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reading before restart")
	}

	// Kill the gateway, then bring a new one up on the same port.
	s1.Close()
	var s2 *Server
	deadline := time.Now().Add(10 * time.Second)
	for {
		s2, err = NewServer(ctx, addr, t.Logf)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer s2.Close()

	// The subscriber reconnects on its own and keeps delivering.
	waitSubscribers(t, s2, 1)
	s2.Publish(testReading())
	select {
	case <-out:
	case <-time.After(10 * time.Second):
		t.Fatal("no reading after restart; reconnect failed")
	}

	subCancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe did not exit on cancel")
	}
	// Channel must be closed after exit.
	for range out {
	}
}

func TestSubscribeGivesUpOnCancel(t *testing.T) {
	// No server at all: Subscribe should back off and exit promptly on
	// cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan Reading)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Subscribe(ctx, "127.0.0.1:1", out) // nothing listens on port 1
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe did not exit")
	}
}
