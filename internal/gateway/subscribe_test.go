package gateway

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"vab/internal/telemetry"
)

// outageListener lets a test cut a live subscription and hold the
// reconnect back: cut closes every accepted conn and parks later accepts
// until restore, so readings published in between fall into the gap.
type outageListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
	up    chan struct{} // closed while accepts pass through
}

func newOutageListener(ln net.Listener) *outageListener {
	up := make(chan struct{})
	close(up)
	return &outageListener{Listener: ln, up: up}
}

func (l *outageListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	up := l.up
	l.mu.Unlock()
	<-up
	l.mu.Lock()
	l.conns = append(l.conns, conn)
	l.mu.Unlock()
	return conn, nil
}

func (l *outageListener) cut() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.up = make(chan struct{})
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

func (l *outageListener) restore() {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.up:
	default:
		close(l.up)
	}
}

// Close releases a parked Accept, so a test that fails mid-outage still
// shuts its server down.
func (l *outageListener) Close() error {
	l.restore()
	return l.Listener.Close()
}

// resumeCounter instruments s and returns its accepted-resume counter.
func resumeCounter(s *Server) *telemetry.Counter {
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	return reg.Counter("vab_gateway_resumes_total", "")
}

func waitCount(t *testing.T, c *telemetry.Counter, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("counter at %d, want %d", c.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectReadings asserts out delivers exactly want, in order.
func expectReadings(t *testing.T, out <-chan Reading, want ...Reading) {
	t.Helper()
	for i, w := range want {
		select {
		case rd := <-out:
			if rd != w {
				t.Fatalf("reading %d: got %+v, want %+v", i, rd, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("reading %d (%+v) never arrived", i, w)
		}
	}
	select {
	case rd := <-out:
		t.Fatalf("unexpected extra reading %+v", rd)
	case <-time.After(50 * time.Millisecond):
	}
}

// startSubscribe runs Subscribe until the test ends.
func startSubscribe(t *testing.T, addr string) <-chan Reading {
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan Reading, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Subscribe(ctx, addr, out)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return out
}

func publishRange(s *Server, from, to uint64) []Reading {
	var rds []Reading
	for i := from; i <= to; i++ {
		rd := seqReading(i)
		s.Publish(rd)
		rds = append(rds, rd)
	}
	return rds
}

// TestSubscribeRecoversDroppedGap: readings published while a dropped
// connection is down reach out after the reconnect, each exactly once
// and in order.
func TestSubscribeRecoversDroppedGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := newOutageListener(raw)
	s := NewServerListener(ctx, ln, t.Logf)
	defer s.Close()
	resumes := resumeCounter(s)

	out := startSubscribe(t, s.Addr().String())
	waitCount(t, resumes, 1)
	expectReadings(t, out, publishRange(s, 1, 3)...)

	ln.cut()
	waitForSubscribers(t, s, 0)
	gap := publishRange(s, 4, 6)
	ln.restore()
	waitCount(t, resumes, 2)
	expectReadings(t, out, append(gap, publishRange(s, 7, 9)...)...)
}

// TestSubscribeResumesAfterRestart: a gateway restarted on the same port
// numbers its stream from 1 again, below the resume point of the old
// one. A drop after the restart must resume from the new server's
// sequence, not the old server's higher one, or the readings between the
// two are never replayed.
func TestSubscribeResumesAfterRestart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s1, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr().String()
	resumes1 := resumeCounter(s1)
	out := startSubscribe(t, addr)
	waitCount(t, resumes1, 1)
	expectReadings(t, out, publishRange(s1, 1, 5)...)

	s1.Close()
	var raw net.Listener
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	ln := newOutageListener(raw)
	s2 := NewServerListener(ctx, ln, t.Logf)
	defer s2.Close()
	resumes2 := resumeCounter(s2)
	waitCount(t, resumes2, 1)
	expectReadings(t, out, publishRange(s2, 1, 3)...)

	ln.cut()
	waitForSubscribers(t, s2, 0)
	gap := publishRange(s2, 4, 7)
	ln.restore()
	waitCount(t, resumes2, 2)
	expectReadings(t, out, append(gap, publishRange(s2, 8, 8)...)...)
}
