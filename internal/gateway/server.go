package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"log"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Server fans decoded readings out to TCP subscribers. Slow subscribers
// are disconnected rather than allowed to exert backpressure on the
// reader (a live telemetry feed must never stall the acoustic polling
// loop).
//
// Fan-out architecture (see DESIGN.md "Fan-out architecture"): the
// subscriber registry is split across N independently locked shards.
// Publish-side state — sequencing, the replay ring, batch coalescing,
// frame encoding — lives under one small sequence lock (seqMu) that is
// never held across per-subscriber work, so Publish costs O(encode +
// shards) regardless of subscriber count. Each flush encodes its
// MsgSeqBatch frame exactly once into a refcounted broadcast arena and
// appends it to every shard's 64-entry broadcast log. Each shard's writer
// goroutines walk its subscribers in turn and write the log from each
// subscriber's cursor, many entries per writev (net.Buffers); there is
// no goroutine per subscriber to wake. A writer about to enter a conn
// write makes sure another writer is free, so a blocked write parks only
// its own goroutine, and subscribers more than 64 entries behind are
// evicted. Steady-state broadcasts allocate nothing: arenas recycle
// through a freelist once every cursor has passed them.
//
// Published readings can be coalesced (SetBatching): the server buffers
// them and flushes when the batch fills or a deadline expires; without
// coalescing every reading goes out as a batch of one.
//
// Resilience (see resume.go and DESIGN.md "Gateway resilience contract"):
// every reading gets a stream sequence and enters a replay ring, so a
// subscriber that sent MsgResume recovers its reconnect gap; heartbeats
// double as dead-peer probes (subscribers are dropped when pongs stop);
// Close drains gracefully — flush, MsgGoodbye, bounded writes — instead
// of snapping every socket mid-frame. A panic in a shard goroutine is
// recovered, logged, and returned by Close.
type Server struct {
	ln   net.Listener
	logf func(format string, args ...interface{})

	// shards hold the subscriber registry; mutated only by SetShards
	// before traffic, always read under seqMu.
	shards   []*shard
	shardIdx int // round-robin registration cursor, under seqMu

	// subCount is the live subscriber count; the flush path reads it to
	// skip encoding when nobody listens, without touching a shard lock.
	// It moves under countMu together with the subscribers gauge.
	subCount atomic.Int64
	countMu  sync.Mutex

	closed bool // under seqMu
	wg     sync.WaitGroup

	// Heartbeat policy: period between MsgHeartbeat frames per
	// subscriber, and how many periods of inbound silence a subscriber
	// survives before it is declared dead. Guarded by seqMu.
	hbPeriod time.Duration
	hbMiss   int

	// drainTimeout bounds Close's graceful drain; drainUntil (atomic
	// UnixNano, 0 = not draining) caps every socket write once draining.
	drainTimeout time.Duration
	drainUntil   atomic.Int64

	// hbTimer paces the heartbeat sweep (one timer for the whole server,
	// not one ticker per subscriber); hbDone ends the sweep loop.
	hbTimer *time.Timer
	hbDone  chan struct{}

	// seqMu is the sequence lock: it guards stream ordering (nextSeq,
	// pending, the replay ring), batching state, and the encode scratch.
	// It is held for O(encode) per flush — never across subscriber I/O
	// or shard iteration — which is what keeps Publish latency flat as
	// subscriber counts grow.
	seqMu        sync.Mutex
	nextSeq      uint64
	pendingFirst uint64
	ring         *ReplayRing

	batchMax   int
	flushAfter time.Duration
	pending    []Reading
	flushTimer *time.Timer
	timerArmed bool
	payload    []byte    // scratch for one batch payload
	replayBuf  []Reading // scratch for ring replays

	// freeBcast recycles broadcast arenas (see broadcast.go).
	freeBcast chan *broadcast

	// metrics is swapped atomically by Instrument; nil means telemetry
	// is off and every recording below is a free no-op.
	metrics metricsPtr

	// panics are the panics recovered in shard goroutines, for Close.
	panicMu sync.Mutex
	panics  []error
}

type subscriber struct {
	conn  net.Conn
	shard *shard
	// cursor is the next log position to write; it moves only after a
	// write returns, so the arenas being written stay pinned.
	cursor atomic.Uint64
	// reply is a pending resume reply, written just before log position
	// reply.at.
	reply atomic.Pointer[broadcast]
	// Under shard.mu: gone ends the session (the subscriber was dropped,
	// evicted or found dead); claimed means it is on the work list or
	// being written, and only its claimant writes it; idx is its position
	// in shard.subs.
	gone    bool
	claimed bool
	idx     int
	// hello and armed belong to the claimant: the hello is still to be
	// written, and the write deadline last armed on conn (UnixNano).
	hello bool
	armed int64
	// isTCP selects the writev fast path; other conns (netfaults
	// wrappers, in-memory transports) get one coalesced Write instead.
	isTCP bool
	// lastSeen is the UnixNano of the last inbound frame.
	lastSeen atomic.Int64
	// bw is conn's writev-style batch interface when it has one (netmem
	// conns); resolved once at registration.
	bw buffersWriter
}

// buffersWriter is the vectored-write interface non-TCP conns may
// provide (netmem does): all buffers under one lock with one reader
// wakeup, the in-memory analogue of writev.
type buffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// writerBatch is how many log entries a writer gathers into one write;
// all their frames go out in one writev.
const writerBatch = 32

// upstreamBufSize is the initial read buffer of a subscriber's readLoop:
// a frame header plus the largest resume payload (a 10-byte uvarint).
// Hello and pong frames are smaller still; a larger frame grows the
// buffer.
const upstreamBufSize = frameHeaderSize + binary.MaxVarintLen64

// maxShards bounds SetShards.
const maxShards = 64

// defaultFlushAfter bounds how long a partial batch may wait once
// batching is enabled without an explicit deadline.
const defaultFlushAfter = 25 * time.Millisecond

// Defaults for the resilience knobs.
const (
	// DefaultHeartbeat is the per-subscriber heartbeat period.
	DefaultHeartbeat = 5 * time.Second
	// DefaultHeartbeatMiss is how many silent heartbeat periods a
	// subscriber survives.
	DefaultHeartbeatMiss = 3
	// DefaultReplayWindow is the replay ring size (readings).
	DefaultReplayWindow = 1024
	// DefaultDrainTimeout bounds the graceful drain in Close.
	DefaultDrainTimeout = 2 * time.Second
)

// Pre-encoded constant frames: these never vary, so encoding them per
// subscriber per tick was pure waste on the hot path.
var (
	helloFrame     = mustFrame(MsgHello, []byte{ProtocolV2})
	heartbeatFrame = mustFrame(MsgHeartbeat, nil)
	goodbyeFrame   = mustFrame(MsgGoodbye, nil)
	pongFrame      = mustFrame(MsgPong, nil)
)

func mustFrame(t MsgType, payload []byte) []byte {
	f, err := EncodeFrame(t, payload)
	if err != nil {
		panic(err)
	}
	return f
}

// NewServer starts listening on addr (e.g. "127.0.0.1:0"). The returned
// server accepts connections until Close or ctx cancellation.
func NewServer(ctx context.Context, addr string, logf func(string, ...interface{})) (*Server, error) {
	var lc net.ListenConfig
	ln, err := lc.Listen(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerListener(ctx, ln, logf), nil
}

// NewServerListener serves an existing listener — the hook load and chaos
// harnesses use to interpose a netfaults.Listener (or an in-memory
// netmem.Listener) between the gateway and its subscribers. The server
// owns ln from here on and closes it on Close or ctx cancellation.
func NewServerListener(ctx context.Context, ln net.Listener, logf func(string, ...interface{})) *Server {
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		ln:           ln,
		logf:         logf,
		hbPeriod:     DefaultHeartbeat,
		hbMiss:       DefaultHeartbeatMiss,
		drainTimeout: DefaultDrainTimeout,
		nextSeq:      1,
		ring:         NewReplayRing(DefaultReplayWindow),
		batchMax:     1,
		freeBcast:    make(chan *broadcast, broadcastFreelist),
		hbDone:       make(chan struct{}),
	}
	s.hbTimer = time.NewTimer(s.hbPeriod)
	s.startShards(defaultShards())
	s.wg.Add(2)
	go s.acceptLoop(ctx)
	go s.heartbeatLoop()
	return s
}

// heartbeatLoop paces the liveness sweep: every heartbeat period it
// appends the pre-encoded MsgHeartbeat entry to every shard's log, and
// the shard's next wake pass evicts subscribers that went silent.
// Centralizing this keeps tickers and selects out of the writer hot loop
// — at 100k sessions those were a measurable share of every wakeup.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.hbTimer.C:
		case <-s.hbDone:
			return
		}
		s.seqMu.Lock()
		if s.closed {
			s.seqMu.Unlock()
			return
		}
		period := s.hbPeriod
		silence := time.Duration(s.hbMiss) * period
		for _, sh := range s.shards {
			sh.sweep.Store(int64(silence))
			sh.append(heartbeatEntry)
		}
		s.hbTimer.Reset(period)
		s.seqMu.Unlock()
	}
}

// defaultShards sizes the registry to the machine: one shard per
// available CPU, capped — beyond a handful the shard locks stop being
// the bottleneck and the extra flusher goroutines are dead weight.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}

// startShards replaces the shard set, each shard with one writer; the
// writers start helpers as writes need them. Callers hold seqMu (or are
// the constructor).
func (s *Server) startShards(n int) {
	s.shards = make([]*shard, n)
	for i := range s.shards {
		sh := newShard(s)
		sh.idx = i
		sh.startWriterLocked() // nothing else can see sh yet
		s.shards[i] = sh
	}
}

// SetShards resizes the fan-out to n shards (clamped to [1, 64]). Only
// honored before any subscriber connects — the registry cannot be
// re-sharded under live sessions.
func (s *Server) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if s.closed || s.subCount.Load() != 0 || n == len(s.shards) {
		return
	}
	for _, sh := range s.shards {
		sh.retire() // empty registries: the writers exit
	}
	s.startShards(n)
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop(ctx context.Context) {
	defer s.wg.Done()
	// Close the listener when the context ends so Accept unblocks.
	stop := context.AfterFunc(ctx, func() { s.ln.Close() })
	defer stop()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.register(conn) {
			return // server closing
		}
	}
}

// register wires a new connection into the fan-out: pick a shard
// round-robin, join its registry with the hello queued, and start the
// subscriber's readLoop. The shard is picked and joined under seqMu, so
// neither Close nor SetShards can slip in between.
func (s *Server) register(conn net.Conn) bool {
	now := time.Now()
	sub := &subscriber{conn: conn, hello: true}
	_, sub.isTCP = conn.(*net.TCPConn)
	sub.bw, _ = conn.(buffersWriter)
	sub.lastSeen.Store(now.UnixNano())

	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		conn.Close()
		return false
	}
	sh := s.shards[s.shardIdx%len(s.shards)]
	s.shardIdx++
	sub.shard = sh
	sh.mu.Lock()
	// The stream starts at the log head: a wake pass cannot have released
	// anything at or past it.
	sub.cursor.Store(sh.head.Load())
	sub.idx = len(sh.subs)
	sh.subs = append(sh.subs, sub)
	sh.refreshGuardLocked(now)
	sh.queueLocked(sub)
	// The readLoop joins the WaitGroup before seqMu is released, so Close
	// cannot slip between registration and wg.Add and leak a goroutine.
	s.wg.Add(1)
	sh.mu.Unlock()
	s.seqMu.Unlock()
	sh.wakeOne()

	s.met().connects.Inc()
	s.addSubscribers(1)
	go s.readLoop(sub)
	return true
}

// readLoop drains frames the subscriber sends upstream. Every frame
// refreshes liveness (the client's Hello and its pongs); MsgResume also
// replays the subscriber's gap. Everything else is ignored for forward
// compatibility.
func (s *Server) readLoop(sub *subscriber) {
	defer s.wg.Done()
	buf := make([]byte, 0, upstreamBufSize)
	for {
		t, payload, err := ReadFrameBuf(sub.conn, buf)
		if err != nil {
			// The peer hung up (or sent garbage): tear the subscriber down
			// now rather than waiting for the next write to fail. drop is
			// idempotent, so racing a writer's own teardown is fine.
			s.drop(sub)
			return
		}
		if cap(payload) > cap(buf) {
			buf = payload[:0]
		}
		now := time.Now()
		sub.lastSeen.Store(now.UnixNano())
		if t == MsgResume {
			if lastSeq, err := DecodeResume(payload); err == nil {
				s.handleResume(sub, lastSeq, now)
			}
		}
	}
}

// handleResume computes the replay under the sequence lock and pins it
// to the shard's log head, so the writer sends the ack and replayed
// sequences after every flush appended before it and before any flush
// appended later: every append happens under seqMu too. A resume that
// arrives while an earlier reply is still pending is ignored. now is the
// clock reading the readLoop took for the frame.
func (s *Server) handleResume(sub *subscriber, lastSeq uint64, now time.Time) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	if s.closed {
		return
	}
	// Replay covers everything up to (not including) the pending batch:
	// pending readings reach this subscriber through the ordinary flush,
	// already sequenced, so replaying them too would duplicate.
	replayEnd := s.nextSeq - uint64(len(s.pending)) // == pendingFirst when pending
	if lastSeq >= replayEnd {
		// This server never flushed lastSeq: the point comes from a
		// previous server, and this one's whole stream is new to the
		// client. Replay it from the ring's oldest reading.
		lastSeq = 0
	}
	s.replayBuf = s.replayBuf[:0]
	var firstSeq uint64
	if s.ring != nil {
		s.replayBuf, firstSeq = s.ring.Since(lastSeq, s.replayBuf)
		// Trim pending-tail overlap (ring already holds pending readings).
		if firstSeq > 0 && firstSeq+uint64(len(s.replayBuf)) > replayEnd {
			keep := int(replayEnd - firstSeq)
			if keep < 0 {
				keep = 0
			}
			s.replayBuf = s.replayBuf[:keep]
		}
		if len(s.replayBuf) == 0 {
			firstSeq = 0
		}
	}
	replayFrom := replayEnd
	if firstSeq > 0 {
		replayFrom = firstSeq
	}
	b := s.getBroadcast()
	s.payload = AppendResumeAck(s.payload[:0], replayFrom, replayEnd)
	b.appendFrame(MsgResumeAck, s.payload) // a few bytes: cannot exceed the bound
	if len(s.replayBuf) > 0 {
		s.encodeSeqFrames(b, s.replayBuf, firstSeq)
	}
	b.seal()
	b.refs.Store(1) // released by the writer once written
	sh := sub.shard
	b.at = sh.head.Load()
	if !sub.reply.CompareAndSwap(nil, b) {
		s.releaseBroadcast(b)
		return
	}
	// A claimed subscriber's writer sees the reply when it releases the
	// subscriber; an unclaimed one is queued for a writer.
	sh.mu.Lock()
	sh.refreshGuardLocked(now)
	if !sub.claimed {
		sh.queueLocked(sub)
		sh.wakeOne()
	}
	sh.mu.Unlock()
	m := s.met()
	m.resumes.Inc()
	m.replayed.Add(int64(len(s.replayBuf)))
}

// armWriteDeadline arms the hang guard on sub's conn before a write. The
// shard's guard deadline moves at most once per guardRefresh, so a
// subscriber written every flush re-arms about once a second, not once
// per write. Once Close starts draining, the drain deadline wins and is
// armed exactly on every write.
func (s *Server) armWriteDeadline(sub *subscriber, guard int64) {
	if until := s.drainUntil.Load(); until != 0 {
		sub.conn.SetWriteDeadline(time.Unix(0, min(guard, until)))
		sub.armed = 0
		return
	}
	if sub.armed != guard {
		sub.conn.SetWriteDeadline(time.Unix(0, guard))
		sub.armed = guard
	}
}

// writeFrames writes a batch of frames: all of them in one writev on
// TCP, or one coalesced Write elsewhere (wrapped and in-memory conns), so
// a batch costs one syscall no matter how many flushes queued up.
func (s *Server) writeFrames(sub *subscriber, bufs net.Buffers, flat *[]byte, guard int64) error {
	nf := len(bufs)
	if nf == 0 {
		return nil
	}
	s.armWriteDeadline(sub, guard)
	var err error
	switch {
	case nf == 1:
		_, err = sub.conn.Write(bufs[0])
	case sub.isTCP:
		v := bufs // WriteTo consumes its receiver, which escapes: only here
		_, err = v.WriteTo(sub.conn)
	case sub.bw != nil:
		_, err = sub.bw.WriteBuffers(bufs)
	default:
		*flat = (*flat)[:0]
		for _, f := range bufs {
			*flat = append(*flat, f...)
		}
		_, err = sub.conn.Write(*flat)
	}
	m := s.met()
	if err != nil {
		m.writeErrors.Inc()
	} else {
		m.framesSent.Add(int64(nf))
	}
	return err
}

// drop tears a subscriber down; idempotent across a failed write, the
// readLoop error path, and wake-pass eviction.
func (s *Server) drop(sub *subscriber) {
	sh := sub.shard
	sh.mu.Lock()
	if !sub.gone {
		sh.removeLocked(sub)
	}
	sh.mu.Unlock()
	sub.conn.Close()
}

// SetHeartbeatPolicy sets both the heartbeat period and the number of
// silent periods after which a subscriber is declared dead.
// Applies to subscribers that connect afterwards.
func (s *Server) SetHeartbeatPolicy(period time.Duration, miss int) {
	s.seqMu.Lock()
	if period > 0 {
		s.hbPeriod = period
		s.hbTimer.Reset(period)
	}
	if miss > 0 {
		s.hbMiss = miss
	}
	s.seqMu.Unlock()
}

// SetReplay resizes the replay ring to keep the last n readings (0
// disables replay: resumes still sequence, but recover nothing). The
// ring restarts empty at the current sequence point.
func (s *Server) SetReplay(n int) {
	s.seqMu.Lock()
	if n > 0 {
		r := NewReplayRing(n)
		r.next = s.nextSeq - uint64(len(s.pending))
		// Re-seed with the pending readings so an immediate resume does
		// not miss them if a flush intervenes.
		for i, rd := range s.pending {
			r.Append(s.pendingFirst+uint64(i), rd)
		}
		s.ring = r
	} else {
		s.ring = nil
	}
	s.seqMu.Unlock()
}

// SetDrainTimeout bounds Close's graceful drain (how long pending frames
// and the goodbye may take to reach slow subscribers).
func (s *Server) SetDrainTimeout(d time.Duration) {
	s.seqMu.Lock()
	if d > 0 {
		s.drainTimeout = d
	}
	s.seqMu.Unlock()
}

// SetBatching coalesces published readings: a flush happens when max
// readings are pending or flushAfter has elapsed since the first one,
// whichever comes first. max ≤ 1 disables coalescing (the default);
// flushAfter ≤ 0 selects a 25 ms deadline. Readings already pending are
// flushed before the change takes effect.
func (s *Server) SetBatching(max int, flushAfter time.Duration) {
	s.seqMu.Lock()
	s.flushLocked()
	if max < 1 {
		max = 1
	}
	if flushAfter <= 0 {
		flushAfter = defaultFlushAfter
	}
	s.batchMax = max
	s.flushAfter = flushAfter
	s.seqMu.Unlock()
}

// Publish broadcasts a reading to every subscriber, coalescing according
// to SetBatching. The reading is assigned the next stream sequence and
// retained in the replay ring. Subscribers more than 64 log entries
// behind are disconnected. Publish never blocks on subscriber I/O.
//
// A reading the wire cannot carry (a non-finite field, or one outside
// the quantization range) is rejected with an error before it takes a
// sequence number, so it costs its batch-mates nothing and subscribers
// see no gap. Publishing after Close is a no-op.
func (s *Server) Publish(rd Reading) error {
	if _, _, _, err := quantizeReading(rd); err != nil {
		s.met().rejected.Inc()
		return err
	}
	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		return nil
	}
	if len(s.pending) == 0 {
		s.pendingFirst = s.nextSeq
	}
	if s.ring != nil {
		s.ring.Append(s.nextSeq, rd)
	}
	s.nextSeq++
	s.pending = append(s.pending, rd)
	if len(s.pending) >= s.batchMax {
		s.flushLocked()
	} else if !s.timerArmed {
		// One reusable timer instead of a fresh AfterFunc per partial
		// batch: the steady-state publish path must not allocate.
		if s.flushTimer == nil {
			s.flushTimer = time.AfterFunc(s.flushAfter, s.deadlineFlush)
		} else {
			s.flushTimer.Reset(s.flushAfter)
		}
		s.timerArmed = true
	}
	s.seqMu.Unlock()
	return nil
}

// NextSeq returns the stream sequence the next published reading will
// carry (1 on a fresh server).
func (s *Server) NextSeq() uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.nextSeq
}

// Flush forces any pending readings onto the wire immediately.
func (s *Server) Flush() {
	s.seqMu.Lock()
	s.flushLocked()
	s.seqMu.Unlock()
}

// deadlineFlush is the timer callback for a partial batch.
func (s *Server) deadlineFlush() {
	s.seqMu.Lock()
	s.timerArmed = false
	s.flushLocked()
	s.seqMu.Unlock()
}

// flushLocked encodes the pending readings once, when anyone listens,
// and appends the broadcast arena to every shard's log. Per-subscriber
// work (evictions, socket writes) happens downstream, off this lock.
// Callers hold seqMu.
func (s *Server) flushLocked() {
	if s.timerArmed {
		s.flushTimer.Stop()
		s.timerArmed = false
	}
	if len(s.pending) == 0 {
		return
	}
	m := s.met()
	if s.subCount.Load() > 0 {
		b := s.getBroadcast()
		m.batches.Add(int64(s.encodeSeqFrames(b, s.pending, s.pendingFirst)))
		b.seal()
		// One reference per shard, dropped by a wake pass once every
		// cursor on the shard is past the arena.
		b.refs.Store(int64(len(s.shards)))
		for _, sh := range s.shards {
			sh.append(b)
		}
	}
	m.readings.Add(int64(len(s.pending)))
	s.pending = s.pending[:0]
}

// Subscribers returns the current subscriber count. The subscribers
// gauge already shows any count it returns.
func (s *Server) Subscribers() int {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	return int(s.subCount.Load())
}

// addSubscribers moves the subscriber count and its gauge together.
func (s *Server) addSubscribers(d int64) {
	s.countMu.Lock()
	s.met().subscribers.Set(float64(s.subCount.Add(d)))
	s.countMu.Unlock()
}

// Close drains gracefully: flush pending readings, stop accepting, queue
// a MsgGoodbye to every subscriber, bound all remaining socket writes by
// the drain timeout, and wait for the server goroutines to finish.
// Subscribers see the tail of the stream plus the goodbye rather than a
// mid-frame reset. The error joins the listener's close error with every
// panic recovered in a shard goroutine (*workpool.PanicError, its Index
// the shard's).
func (s *Server) Close() error {
	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		return nil
	}
	s.flushLocked()
	s.closed = true
	close(s.hbDone)
	err := s.ln.Close()
	s.drainUntil.Store(time.Now().Add(s.drainTimeout).UnixNano())
	// The goodbye is each log's last entry, after the final flush, so
	// writers still send every frame — goodbye included — under the drain
	// deadline; each session ends after its goodbye, and the writers exit
	// once their shard is empty.
	for _, sh := range s.shards {
		sh.retire()
		sh.append(goodbyeEntry)
	}
	s.seqMu.Unlock()
	s.wg.Wait()
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	return errors.Join(append([]error{err}, s.panics...)...)
}
