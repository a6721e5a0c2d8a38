package gateway

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vab/internal/netmem"
	"vab/internal/telemetry"
)

// nullConn is a fake subscriber socket: writes are discarded, reads
// block until Close. It lets the alloc pin drive the full fan-out path
// (ring, writer goroutine, writev batching) without kernel sockets or
// draining goroutines that could allocate.
type nullConn struct {
	closed atomic.Bool
	unread chan struct{}
	addr   netmem.Addr
}

func newNullConn() *nullConn {
	return &nullConn{unread: make(chan struct{}), addr: netmem.Addr{Name: "null"}}
}

func (c *nullConn) Read(b []byte) (int, error) {
	<-c.unread
	return 0, io.EOF
}

func (c *nullConn) Write(b []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	return len(b), nil
}

func (c *nullConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.unread)
	}
	return nil
}

func (c *nullConn) LocalAddr() net.Addr              { return c.addr }
func (c *nullConn) RemoteAddr() net.Addr             { return c.addr }
func (c *nullConn) SetDeadline(time.Time) error      { return nil }
func (c *nullConn) SetReadDeadline(time.Time) error  { return nil }
func (c *nullConn) SetWriteDeadline(time.Time) error { return nil }

// TestBroadcastAllocs pins the encode-once flush path at zero
// allocations per publish in steady state, measured across the whole
// process — sequence lock, arena encode, shard fan-out, ring push, and
// the writer goroutines' socket writes all included.
func TestBroadcastAllocs(t *testing.T) {
	ln := netmem.Listen("alloc", 0) // accept blocks: subs register directly
	s := NewServerListener(context.Background(), ln, func(string, ...interface{}) {})
	defer s.Close()
	s.SetShards(4)
	s.SetHeartbeatPolicy(time.Hour, 3) // no ticks during the measurement
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	frames := reg.Counter("vab_gateway_frames_sent_total", "")

	const subs = 8
	conns := make([]*nullConn, subs)
	for i := range conns {
		conns[i] = newNullConn()
		if !s.register(conns[i]) {
			t.Fatal("register refused")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for frames.Value() < subs { // every hello written
		if time.Now().After(deadline) {
			t.Fatal("subscribers never registered")
		}
		time.Sleep(time.Millisecond)
	}

	rd := seqReading(1)
	// One op = one published reading fanned out to every subscriber as a
	// batch-of-one MsgSeqBatch frame; it completes when every writer has
	// put the frame on its socket, so the measurement covers the full
	// delivery path.
	op := func() {
		want := frames.Value() + subs
		s.Publish(rd)
		for frames.Value() < want {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ {
		op() // warm: scratch buffers, rings, arena freelist all reach steady state
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("steady-state broadcast allocated %.2f times per publish, want 0", allocs)
	}
}

// TestSubscriberGaugeLive pins the satellite fix: the
// vab_gateway_subscribers gauge moves when sessions come and go, not
// merely on the next flush. Eviction of a stalled subscriber must be
// visible in the gauge without any further Publish.
func TestSubscriberGaugeLive(t *testing.T) {
	s, _ := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	gauge := reg.Gauge("vab_gateway_subscribers", "")

	// Connect: the gauge must move with zero publishes.
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, s, 1)
	if g := gauge.Value(); g != 1 {
		t.Fatalf("gauge after subscribe = %g, want 1 (no flush ran)", g)
	}

	// Saturate the stalled subscriber until eviction; then the gauge must
	// read 0 with no further publish.
	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never evicted")
		}
		s.Publish(seqReading(1))
	}
	if g := gauge.Value(); g != 0 {
		t.Fatalf("gauge after eviction = %g, want 0 (no flush ran since)", g)
	}
	conn.Close()
}

// TestShardChurnResumeSoak races subscribe/evict/resume against sharded
// flushes: a steady publisher, stalled subscribers being evicted, and
// parallel resuming sessions that reconnect mid-stream — every resumed
// session must observe a strictly increasing, gap-free sequence. Run
// under -race this pins the shard registry, subscriber count, and arena
// refcounting.
func TestShardChurnResumeSoak(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetShards(4)
	srv.SetHeartbeatPolicy(time.Second, 3)
	srv.SetReplay(1 << 16) // nothing ages out: gaps must be zero
	srv.SetBatching(8, 2*time.Millisecond)
	addr := srv.Addr().String()

	var stopPub atomic.Bool
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := uint64(1); !stopPub.Load(); i++ {
			srv.Publish(seqReading(i))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Stalled subscribers churn in the background: connect, never read,
	// get evicted by ring overflow while flushes race across shards.
	var lazyWG sync.WaitGroup
	var stopLazy atomic.Bool
	lazyWG.Add(1)
	go func() {
		defer lazyWG.Done()
		for !stopLazy.Load() {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
			c.Close()
		}
	}()

	// Four resuming workers reconnect repeatedly, each asserting its own
	// gap-free strictly-increasing sequence view.
	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for round := 0; round < rounds; round++ {
				c, err := Dial(ctx, addr, WithResume(lastSeq), WithHandshakeTimeout(2*time.Second))
				if err != nil {
					continue
				}
				for reads := 0; reads < 30; reads++ {
					rd, err := c.Next(time.Now().Add(500 * time.Millisecond))
					if err != nil {
						break
					}
					seq := c.LastSeq()
					if seq <= lastSeq {
						errCh <- errSeq("sequence went backwards", seq, lastSeq)
						c.Close()
						return
					}
					if seq != lastSeq+1 {
						errCh <- errSeq("sequence gap", seq, lastSeq)
						c.Close()
						return
					}
					if uint64(rd.Count) != seq {
						errCh <- errSeq("content mismatch", uint64(rd.Count), seq)
						c.Close()
						return
					}
					lastSeq = seq
				}
				c.Close()
			}
			errCh <- nil
		}()
	}
	wg.Wait()
	stopPub.Store(true)
	stopLazy.Store(true)
	pubWG.Wait()
	lazyWG.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

func errSeq(what string, got, ref uint64) error {
	return fmt.Errorf("%s: got %d against %d", what, got, ref)
}
