package gateway

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"vab/internal/netmem"
)

// seqReading tags a reading with its publish index so content checks can
// cross-verify stream sequences.
func seqReading(i uint64) Reading {
	rd := testReading()
	rd.Count = uint32(i)
	rd.Time = time.Unix(0, 1700000000000000000+int64(i)).UTC()
	return rd
}

func TestResumeCodecRoundTrip(t *testing.T) {
	p := AppendResume(nil, 12345)
	if got, err := DecodeResume(p); err != nil || got != 12345 {
		t.Fatalf("resume round trip: %d %v", got, err)
	}
	if _, err := DecodeResume(append(p, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeResume(nil); err == nil {
		t.Fatal("empty resume accepted")
	}

	ack := AppendResumeAck(nil, 10, 20)
	from, next, err := DecodeResumeAck(ack)
	if err != nil || from != 10 || next != 20 {
		t.Fatalf("ack round trip: %d %d %v", from, next, err)
	}
	if _, _, err := DecodeResumeAck(AppendResumeAck(nil, 20, 10)); err == nil {
		t.Fatal("liveNext < replayFrom accepted")
	}

	rds := []Reading{seqReading(1), seqReading(2), seqReading(3)}
	sb, err := AppendSeqBatch(nil, 41, rds)
	if err != nil {
		t.Fatal(err)
	}
	got, first, err := DecodeSeqBatchInto(nil, sb)
	if err != nil || first != 41 || len(got) != 3 {
		t.Fatalf("seq batch round trip: first=%d n=%d err=%v", first, len(got), err)
	}
	for i := range rds {
		if got[i] != rds[i] {
			t.Fatalf("reading %d differs: %+v vs %+v", i, got[i], rds[i])
		}
	}
	if _, err := AppendSeqBatch(nil, 0, rds); err == nil {
		t.Fatal("firstSeq 0 accepted")
	}
}

func TestReplayRing(t *testing.T) {
	r := NewReplayRing(4)
	if oldest, next := r.Window(); oldest != 1 || next != 1 {
		t.Fatalf("fresh window [%d,%d)", oldest, next)
	}
	for i := uint64(1); i <= 10; i++ {
		r.Append(i, seqReading(i))
	}
	oldest, next := r.Window()
	if oldest != 7 || next != 11 || r.n != 4 {
		t.Fatalf("window [%d,%d) len %d, want [7,11) 4", oldest, next, r.n)
	}
	// Everything still in the window replays in order.
	got, first := r.Since(8, nil)
	if first != 9 || len(got) != 2 || got[0].Count != 9 || got[1].Count != 10 {
		t.Fatalf("Since(8): first=%d got=%v", first, got)
	}
	// An aged-out lastSeq clamps to the window start.
	got, first = r.Since(2, nil)
	if first != 7 || len(got) != 4 {
		t.Fatalf("Since(2): first=%d n=%d, want 7 4", first, len(got))
	}
	// Fully caught up: nothing to replay.
	if got, first = r.Since(10, nil); first != 0 || len(got) != 0 {
		t.Fatalf("Since(10): first=%d n=%d", first, len(got))
	}
	// Out-of-order append resets instead of serving a holed window.
	r.Append(100, seqReading(100))
	if oldest, next := r.Window(); oldest != 100 || next != 101 || r.n != 1 {
		t.Fatalf("after reset: [%d,%d) len %d", oldest, next, r.n)
	}
	// Zero-size ring keeps nothing and never panics.
	z := NewReplayRing(0)
	z.Append(1, seqReading(1))
	if got, first := z.Since(0, nil); first != 0 || len(got) != 0 {
		t.Fatalf("zero ring replayed: first=%d n=%d", first, len(got))
	}
}

// TestResumeRecoversGap is the tentpole scenario: a subscriber reads part
// of the stream, loses its connection, more readings flow, and the
// resumed session recovers every missed reading — one gap-free strictly
// increasing sequence.
func TestResumeRecoversGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr().String()

	publishUpTo := func(n *uint64, upTo uint64) {
		for *n < upTo {
			*n++
			srv.Publish(seqReading(*n))
		}
	}
	var published uint64

	// Session 1: fresh resume subscriber reads the first 5 readings.
	c, err := Dial(ctx, addr, WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	publishUpTo(&published, 5)
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("session 1 next %d: %v", i, err)
		}
		if got := c.LastSeq(); got != lastSeq+1 || uint64(rd.Count) != got {
			t.Fatalf("session 1 seq %d (count %d), want %d", got, rd.Count, lastSeq+1)
		}
		lastSeq = c.LastSeq()
	}
	c.Close()

	// The subscriber is gone; the stream keeps flowing.
	waitForSubscribers(t, srv, 0)
	publishUpTo(&published, 12)

	// Session 2: resume from lastSeq recovers 6..12 with no gap.
	c2, err := Dial(ctx, addr, WithResume(lastSeq))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for want := lastSeq + 1; want <= 12; want++ {
		rd, err := c2.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("session 2 next (want seq %d): %v", want, err)
		}
		if got := c2.LastSeq(); got != want || uint64(rd.Count) != want {
			t.Fatalf("session 2 seq %d (count %d), want %d", got, rd.Count, want)
		}
	}
	from, liveNext, ok := c2.ackReplayFrom, c2.ackLiveNext, c2.ackSeen
	if !ok || from != lastSeq+1 {
		t.Fatalf("ack window from=%d ok=%v, want from=%d", from, ok, lastSeq+1)
	}
	if liveNext != 13 {
		t.Fatalf("ack liveNext=%d, want 13", liveNext)
	}
}

// TestResumeAgedOutGap: when the gap outgrew the ring, the ack reports
// the truncated window and the session continues from the oldest
// retained reading — degraded to partial recovery, never stuck.
func TestResumeAgedOutGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetReplay(4) // tiny window: the gap will age out

	for i := uint64(1); i <= 20; i++ {
		srv.Publish(seqReading(i))
	}
	c, err := Dial(ctx, addr(srv), WithResume(2)) // lastSeq 2: gap 3..16 is gone
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// First recovered reading must be the window start (17 = 21-4), and
	// the ack must disclose the unrecoverable gap.
	for want := uint64(17); want <= 20; want++ {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("next (want %d): %v", want, err)
		}
		if got := c.LastSeq(); got != want || uint64(rd.Count) != want {
			t.Fatalf("seq %d (count %d), want %d", got, rd.Count, want)
		}
	}
	if from, ok := c.ackReplayFrom, c.ackSeen; !ok || from != 17 {
		t.Fatalf("ack from=%d ok=%v, want 17 (gap 3..16 aged out)", from, ok)
	}
}

// TestResumeAheadOfRestartedServer: a resume point beyond the server's
// flushed stream can only come from a previous server, so the gateway
// restarted into a fresh sequence space. Everything the new server
// published is new to the client: it replays from the ring's oldest
// reading, and LastSeq follows the new stream.
func TestResumeAheadOfRestartedServer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := uint64(1); i <= 3; i++ {
		srv.Publish(seqReading(i))
	}
	srv.Flush()
	c, err := Dial(ctx, addr(srv), WithResume(100))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for want := uint64(1); want <= 3; want++ {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("next (want %d): %v", want, err)
		}
		if got := c.LastSeq(); got != want || uint64(rd.Count) != want {
			t.Fatalf("seq %d (count %d), want %d", got, rd.Count, want)
		}
	}
	if from, ok := c.ackReplayFrom, c.ackSeen; !ok || from != 1 {
		t.Fatalf("ack from=%d ok=%v, want 1", from, ok)
	}
}

// TestResumeIgnoresEarlyHeartbeat: heartbeats that reach a resuming
// client before its ack must not lift the pre-ack suppression. The
// client's resume request is held back while readings and heartbeats
// flow; the readings then arrive twice on the wire — live before the
// ack, replayed after it — and the client must deliver each once.
func TestResumeIgnoresEarlyHeartbeat(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := netmem.Listen("early-heartbeat", 0)
	srv := NewServerListener(ctx, ln, t.Logf)
	defer srv.Close()
	srv.SetHeartbeatPolicy(5*time.Millisecond, 200)

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	type dialed struct {
		c   *Client
		err error
	}
	done := make(chan dialed, 1)
	go func() {
		c, err := NewClientConn(&slowSecondWrite{Conn: conn, delay: 100 * time.Millisecond}, WithResume(0))
		done <- dialed{c, err}
	}()
	waitForSubscribers(t, srv, 1)
	time.Sleep(20 * time.Millisecond) // heartbeats queue up ahead of the data
	for i := uint64(1); i <= 5; i++ {
		srv.Publish(seqReading(i))
	}
	d := <-done
	if d.err != nil {
		t.Fatal(d.err)
	}
	defer d.c.Close()
	for want := uint64(1); want <= 5; want++ {
		rd, err := d.c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			t.Fatalf("next (want %d): %v", want, err)
		}
		if got := d.c.LastSeq(); got != want || uint64(rd.Count) != want {
			t.Fatalf("seq %d (count %d), want %d", got, rd.Count, want)
		}
	}
	if rd, err := d.c.Next(time.Now().Add(200 * time.Millisecond)); err == nil {
		t.Fatalf("reading %d (seq %d) delivered twice", rd.Count, d.c.LastSeq())
	}
}

// slowSecondWrite delays the second Write on a conn — for a resuming
// client, the MsgResume that follows its hello.
type slowSecondWrite struct {
	net.Conn
	delay  time.Duration
	writes int
}

func (c *slowSecondWrite) Write(b []byte) (int, error) {
	c.writes++
	if c.writes == 2 {
		time.Sleep(c.delay)
	}
	return c.Conn.Write(b)
}

// TestHeartbeatDeadPeerEviction: a subscriber that goes silent is
// dropped after miss periods, while a client answering heartbeats stays.
func TestHeartbeatDeadPeerEviction(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHeartbeatPolicy(30*time.Millisecond, 2)

	// Live client: keeps reading, so it pongs every heartbeat.
	live, err := Dial(ctx, addr(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	go func() {
		for {
			if _, err := live.Next(time.Time{}); err != nil {
				return
			}
		}
	}()

	// Dead peer: says hello, then goes silent while still draining the
	// socket so writes never block.
	dead, err := net.Dial("tcp", addr(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	go drainConn(dead)
	if _, err := dead.Write(helloFrame); err != nil {
		t.Fatal(err)
	}

	waitForSubscribers(t, srv, 2)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("dead peer not evicted (still %d subscribers)", srv.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give the reaper a few more periods: the live client must remain.
	time.Sleep(150 * time.Millisecond)
	if srv.Subscribers() != 1 {
		t.Fatalf("ponging client evicted")
	}
}

// TestClientPongsKeepSessionAlive: a live client that keeps calling
// Next answers heartbeats and survives many miss windows.
func TestClientPongsKeepSessionAlive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetHeartbeatPolicy(20*time.Millisecond, 2)

	c, err := Dial(ctx, addr(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		// No readings are published: Next sits on the socket answering
		// heartbeats until the deadline fires.
		_, err := c.Next(time.Now().Add(400 * time.Millisecond))
		done <- err
	}()
	err = <-done
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("next: %v, want deadline timeout (session killed early?)", err)
	}
	if srv.Subscribers() != 1 {
		t.Fatalf("ponging subscriber evicted: %d subscribers", srv.Subscribers())
	}
}

// TestGracefulDrainGoodbye: Close flushes the pending batch and the
// subscriber sees every reading followed by ErrServerClosing, not a
// connection reset.
func TestGracefulDrainGoodbye(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetBatching(64, time.Hour) // park readings in the pending batch

	c, err := Dial(ctx, addr(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(1); i <= 5; i++ {
		srv.Publish(seqReading(i))
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	var got []uint64
	for {
		rd, err := c.Next(time.Now().Add(2 * time.Second))
		if err != nil {
			if !errors.Is(err, ErrServerClosing) {
				t.Fatalf("stream ended with %v, want ErrServerClosing", err)
			}
			break
		}
		got = append(got, uint64(rd.Count))
	}
	if len(got) != 5 {
		t.Fatalf("drained %d readings, want 5: %v", len(got), got)
	}
	for i, g := range got {
		if g != uint64(i+1) {
			t.Fatalf("drain out of order: %v", got)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
}

// addr is shorthand for a server's dial address.
func addr(s *Server) string { return s.Addr().String() }

// drainConn discards everything the server sends so its writes never
// block on a full kernel buffer.
func drainConn(c net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := c.Read(buf); err != nil {
			return
		}
	}
}

// waitForSubscribers blocks until the server has exactly n subscribers.
func waitForSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Subscribers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers stuck at %d, want %d", s.Subscribers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
