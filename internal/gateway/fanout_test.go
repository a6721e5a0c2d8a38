package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vab/internal/netmem"
	"vab/internal/telemetry"
	"vab/internal/workpool"
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
// process — sequence lock, arena encode, log append, wake pass, and the
// writer goroutines' socket writes all included.
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
		op() // warm: scratch buffers and the arena freelist reach steady state
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

// stuckConn takes the hello, then blocks every later write until Close:
// a peer that stopped reading.
type stuckConn struct {
	*nullConn
	writes atomic.Int32
}

func (c *stuckConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		<-c.unread
		return 0, net.ErrClosed
	}
	return c.nullConn.Write(b)
}

// TestSlowSubscriberEvictedAtLogBound: a subscriber whose conn blocks
// stays registered while it is at most logSlots flushes behind and is
// evicted at the next flush, while a subscriber on the same shard that
// keeps up receives every reading before and after the eviction.
func TestSlowSubscriberEvictedAtLogBound(t *testing.T) {
	ln := netmem.Listen("evict", 0)
	s := NewServerListener(context.Background(), ln, t.Logf)
	defer s.Close()
	s.SetShards(1)
	s.SetHeartbeatPolicy(time.Hour, 3)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	drops := reg.Counter("vab_gateway_slow_subscriber_drops_total", "")

	if !s.register(&stuckConn{nullConn: newNullConn()}) {
		t.Fatal("register refused")
	}
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 2)

	for i := uint64(1); i <= 2*logSlots; i++ {
		s.Publish(seqReading(i))
		rd, err := c.Next(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		if c.LastSeq() != i || uint64(rd.Count) != i {
			t.Fatalf("got seq %d (count %d), want %d", c.LastSeq(), rd.Count, i)
		}
		switch {
		case i <= logSlots:
			if n := s.Subscribers(); n != 2 || drops.Value() != 0 {
				t.Fatalf("%d flushes behind: %d subscribers, %d drops; want 2, 0", i, n, drops.Value())
			}
		case i == logSlots+1:
			waitForSubscribers(t, s, 1)
			if drops.Value() != 1 {
				t.Fatalf("stuck subscriber left with %d slow drops, want 1", drops.Value())
			}
		}
	}
}

// shardWriters reads a shard's writer-goroutine count.
func shardWriters(sh *shard) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.writers
}

// TestBlockedWritesHoldBackNoOne: on one shard, more conns whose writes
// block forever than the shard keeps writers, next to a real client.
// Every reading reaches the client within a second while those writes
// stay blocked; the stuck subscribers are evicted at the log bound, and
// once their writes unwind the shard is back to its two base writers.
func TestBlockedWritesHoldBackNoOne(t *testing.T) {
	ln := netmem.Listen("blocked", 0)
	s := NewServerListener(context.Background(), ln, t.Logf)
	defer s.Close()
	s.SetShards(1)
	s.SetHeartbeatPolicy(time.Hour, 3)
	sh := s.shards[0]

	const stuck = 4
	conns := make([]*stuckConn, stuck)
	defer func() { // unblock the writes even when the test fails early
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		conns[i] = &stuckConn{nullConn: newNullConn()}
		if !s.register(conns[i]) {
			t.Fatal("register refused")
		}
	}
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, stuck+1)

	for i := uint64(1); i <= 2*logSlots; i++ {
		s.Publish(seqReading(i))
		rd, err := c.Next(time.Now().Add(time.Second))
		if err != nil {
			t.Fatalf("reading %d with %d writes blocked: %v", i, stuck, err)
		}
		if c.LastSeq() != i || uint64(rd.Count) != i {
			t.Fatalf("got seq %d (count %d), want %d", c.LastSeq(), rd.Count, i)
		}
		if i == logSlots {
			if n := s.Subscribers(); n != stuck+1 {
				t.Fatalf("%d subscribers at the log bound, want %d", n, stuck+1)
			}
			if w := shardWriters(sh); w <= stuck {
				t.Fatalf("%d writers with %d writes blocked", w, stuck)
			}
		}
	}
	waitForSubscribers(t, s, 1)
	deadline := time.Now().Add(5 * time.Second)
	for shardWriters(sh) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d writers after the blocked writes unwound, want 2", shardWriters(sh))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCaughtUpSubscribersHaveNoWriterGoroutine: caught-up subscribers
// cost their readLoop and nothing else, so after a run of flushes the
// process holds N readLoops plus a few goroutines per shard, not 2N.
func TestCaughtUpSubscribersHaveNoWriterGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	ln := netmem.Listen("count", 0)
	s := NewServerListener(context.Background(), ln, func(string, ...interface{}) {})
	defer s.Close()
	const shards, subs = 4, 400
	s.SetShards(shards)
	s.SetHeartbeatPolicy(time.Hour, 3)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	frames := reg.Counter("vab_gateway_frames_sent_total", "")
	for i := 0; i < subs; i++ {
		if !s.register(newNullConn()) {
			t.Fatal("register refused")
		}
	}
	const flushes = 50
	deadline := time.Now().Add(10 * time.Second)
	for i := uint64(1); i <= flushes; i++ {
		s.Publish(seqReading(i))
	}
	for frames.Value() < subs*(flushes+1) { // the hellos, then every flush
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames written", frames.Value(), subs*(flushes+1))
		}
		time.Sleep(time.Millisecond)
	}
	// accept and heartbeat loops, and at most a few writers per shard
	limit := subs + 2 + 4*shards
	for {
		got := runtime.NumGoroutine() - before
		if got <= limit {
			t.Logf("%d goroutines for %d caught-up subscribers on %d shards", got, subs, shards)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines for %d caught-up subscribers on %d shards, want at most %d", got, subs, shards, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicConn takes the hello, then panics on every later write.
type panicConn struct {
	*nullConn
	writes atomic.Int32
}

func (c *panicConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) > 1 {
		panic("conn write exploded")
	}
	return c.nullConn.Write(b)
}

// TestShardWritePanicDropsOnlyItsSubscriber: a conn write that panics
// drops its own subscriber; a client on the same shard keeps receiving,
// and Close returns the panic as a *workpool.PanicError naming the shard.
func TestShardWritePanicDropsOnlyItsSubscriber(t *testing.T) {
	ln := netmem.Listen("panic", 0)
	var logged atomic.Int32
	s := NewServerListener(context.Background(), ln, func(format string, args ...interface{}) {
		if strings.Contains(fmt.Sprintf(format, args...), "conn write exploded") {
			logged.Add(1)
		}
	})
	s.SetShards(1)
	s.SetHeartbeatPolicy(time.Hour, 3)
	if !s.register(&panicConn{nullConn: newNullConn()}) {
		t.Fatal("register refused")
	}
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClientConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 2)
	for i := uint64(1); i <= 8; i++ {
		s.Publish(seqReading(i))
		rd, err := c.Next(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		if c.LastSeq() != i || uint64(rd.Count) != i {
			t.Fatalf("got seq %d (count %d), want %d", c.LastSeq(), rd.Count, i)
		}
	}
	waitForSubscribers(t, s, 1)
	if logged.Load() != 1 {
		t.Fatalf("panic logged %d times, want 1", logged.Load())
	}
	err = s.Close()
	var pe *workpool.PanicError
	if !errors.As(err, &pe) || pe.Stage != panicStage || pe.Index != 0 || pe.Value != "conn write exploded" {
		t.Fatalf("Close returned %v, want the shard 0 write panic", err)
	}
}

// TestLappedWriterWritesNoOverwrittenSlot: a writer whose next slot has
// been overwritten gathers nothing, and a writer racing the appender only
// ever gathers the frame of the position it asked for.
func TestLappedWriterWritesNoOverwrittenSlot(t *testing.T) {
	const n = 20000
	arenas := make([]*broadcast, n)
	for p := range arenas {
		arenas[p] = &broadcast{frames: [][]byte{binary.BigEndian.AppendUint64(nil, uint64(p))}}
	}
	sh := newShard(nil)
	for p := 0; p < logSlots+8; p++ {
		sh.append(arenas[p])
	}
	bufs, last := sh.gather(nil, 0, writerBatch)
	if last != nil || len(bufs) != 0 {
		t.Fatalf("lapped gather returned %d frames", len(bufs))
	}
	if bufs, last = sh.gather(bufs, 8, logSlots+8); last != arenas[logSlots+7] || len(bufs) != logSlots {
		t.Fatalf("oldest retained window gathered %d frames", len(bufs))
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := logSlots + 8; p < n; p++ {
			sh.append(arenas[p])
			if p%16 == 0 {
				runtime.Gosched()
			}
		}
	}()
	laps := 0
	for cur, batches := uint64(0), 0; cur < n; batches++ {
		end := min(sh.head.Load(), cur+writerBatch)
		if bufs, last = sh.gather(bufs[:0], cur, end); last == nil && cur < end {
			laps++
			cur = sh.head.Load()
			continue
		}
		for i, f := range bufs {
			if got := binary.BigEndian.Uint64(f); got != cur+uint64(i) {
				t.Fatalf("position %d gathered the frame of position %d", cur+uint64(i), got)
			}
		}
		cur = end
		if batches%64 == 0 {
			time.Sleep(50 * time.Microsecond) // fall behind now and then
		}
	}
	<-done
	t.Logf("%d laps", laps)
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
				c, err := Dial(ctx, addr, WithResume(lastSeq), withHandshakeTimeout(2*time.Second))
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
