package gateway

import (
	"sync"
	"time"
)

// shardEntryKind discriminates units of work on a shard's flush queue.
type shardEntryKind uint8

const (
	// entryBroadcast fans a shared broadcast arena out to every
	// subscriber on the shard.
	entryBroadcast shardEntryKind = iota
	// entryResume delivers a resume ack + replay to one subscriber.
	// Routed through the shard queue so the replay composes strictly
	// before any later live flush: both are enqueued under seqMu, and the
	// flusher processes FIFO.
	entryResume
	// entryShutdown seals every ring on the shard (goodbye first) and
	// marks the shard dead. Always the last entry a queue carries.
	entryShutdown
	// entryHeartbeat sweeps the shard once per heartbeat period: queue a
	// pre-encoded MsgHeartbeat in every ring and evict peers that went
	// silent. Centralising this here keeps the per-subscriber writer loop
	// free of tickers and selects.
	entryHeartbeat
)

// shardEntry is one queued unit of flusher work.
type shardEntry struct {
	kind    shardEntryKind
	b       *broadcast    // entryBroadcast; entryResume: ack + replay (one reference)
	sub     *subscriber   // entryResume
	silence time.Duration // entryHeartbeat: dead-peer threshold (miss × period)
}

// shard is an independently locked slice of the subscriber registry with
// its own flusher goroutine. Publish-side work (encode, sequence, replay
// ring) stays under the server's small sequence lock; everything
// per-subscriber — registration, ring pushes, eviction — convoys only on
// its shard, so fan-out scales across shards instead of one global mutex.
type shard struct {
	srv *Server

	// mu guards subs and dead.
	mu   sync.Mutex
	subs map[*subscriber]struct{}
	dead bool // no further registrations (server closing)

	// The flush queue: producers append under qmu and signal; the flusher
	// swaps queue/proc (double buffer) and works through proc without
	// holding qmu, so Publish never waits behind ring pushes.
	qmu     sync.Mutex
	qcond   sync.Cond
	queue   []shardEntry
	proc    []shardEntry
	qclosed bool

	// Flusher-only scratch for batched fan-out passes (no locking).
	bcast   []*broadcast
	entries []ringEntry
}

func newShard(s *Server) *shard {
	sh := &shard{srv: s, subs: make(map[*subscriber]struct{})}
	sh.qcond.L = &sh.qmu
	return sh
}

// enqueue appends one unit of work and wakes the flusher.
func (sh *shard) enqueue(e shardEntry) {
	sh.qmu.Lock()
	sh.queue = append(sh.queue, e)
	sh.qmu.Unlock()
	sh.qcond.Signal()
}

// closeQueue ends the flusher once the queue drains.
func (sh *shard) closeQueue() {
	sh.qmu.Lock()
	sh.qclosed = true
	sh.qmu.Unlock()
	sh.qcond.Broadcast()
}

// run is the shard flusher: it drains the queue in FIFO order, pushing
// broadcast frames into subscriber rings and waking their writers.
func (sh *shard) run() {
	defer sh.srv.wg.Done()
	for {
		sh.qmu.Lock()
		for len(sh.queue) == 0 && !sh.qclosed {
			sh.qcond.Wait()
		}
		if len(sh.queue) == 0 { // qclosed and drained
			sh.qmu.Unlock()
			return
		}
		sh.queue, sh.proc = sh.proc[:0], sh.queue
		sh.qmu.Unlock()
		// Consecutive broadcasts are fanned out as one batch: a run of
		// queued flushes costs each subscriber one ring lock and one
		// wakeup instead of one per flush. Other entry kinds keep their
		// FIFO position, so the resume-ordering contract is untouched.
		for i := 0; i < len(sh.proc); {
			if sh.proc[i].kind != entryBroadcast {
				sh.process(&sh.proc[i])
				sh.proc[i] = shardEntry{}
				i++
				continue
			}
			sh.bcast = sh.bcast[:0]
			for i < len(sh.proc) && sh.proc[i].kind == entryBroadcast {
				sh.bcast = append(sh.bcast, sh.proc[i].b)
				sh.proc[i] = shardEntry{}
				i++
			}
			sh.fanOut(sh.bcast)
			for j := range sh.bcast {
				sh.bcast[j] = nil
			}
		}
	}
}

func (sh *shard) process(e *shardEntry) {
	switch e.kind {
	case entryResume:
		sh.deliverResume(e.sub, e.b)
	case entryShutdown:
		sh.shutdown()
	case entryHeartbeat:
		sh.heartbeat(e.silence)
	}
}

// fanOut lands a batch of broadcasts in every subscriber ring on the
// shard: per subscriber, all of them go in under one ring lock with at
// most one writer wakeup.
func (sh *shard) fanOut(bs []*broadcast) {
	s := sh.srv
	entries := sh.entries
	sh.mu.Lock()
	for sub := range sh.subs {
		entries = entries[:0]
		for _, b := range bs {
			// Take the subscriber's reference before the push makes the
			// entry visible: the writer may pop and release it
			// immediately, and an increment after the fact would race
			// the count to zero mid-fan-out.
			b.refs.Add(1)
			entries = append(entries, ringEntry{frames: b.frames, b: b})
		}
		ok, wasEmpty := sub.ring.pushN(entries)
		if !ok {
			for _, e := range entries {
				s.releaseBroadcast(e.b)
			}
			sh.evictLocked(sub, "slow subscriber")
			continue
		}
		if wasEmpty {
			sub.wakeWriter()
		}
	}
	sh.mu.Unlock()
	for i := range entries {
		entries[i] = ringEntry{}
	}
	sh.entries = entries[:0]
	for _, b := range bs {
		s.releaseBroadcast(b) // the shard's own holds
	}
}

// heartbeat queues a MsgHeartbeat in every subscriber ring and drops
// peers that have been silent past the threshold. A full ring
// skips the heartbeat rather than evicting: the pending broadcasts
// already keep the conn visibly alive, and ring overflow on the
// broadcast path handles true slowness.
func (sh *shard) heartbeat(silence time.Duration) {
	s := sh.srv
	now := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for sub := range sh.subs {
		if idle := now.Sub(time.Unix(0, sub.lastSeen.Load())); idle > silence {
			s.met().hbDrops.Inc()
			s.logf("gateway: dropping dead peer %v (silent %v)", sub.conn.RemoteAddr(), idle.Round(time.Millisecond))
			sh.removeLocked(sub)
			sub.ring.discard(s.releaseBroadcast)
			sub.wakeWriter()
			sub.conn.Close()
			continue
		}
		if ok, wasEmpty := sub.ring.push(ringEntry{frames: heartbeatFrames}); ok {
			s.met().heartbeats.Inc()
			if wasEmpty {
				sub.wakeWriter()
			}
		}
	}
}

// deliverResume hands the ack+replay arena to one subscriber. Runs on
// the flusher so it lands in FIFO order with the broadcasts enqueued
// around it: earlier ring entries carry flushes the replay covers (the
// client drops those until the ack), later ones carry newer sequences.
func (sh *shard) deliverResume(sub *subscriber, b *broadcast) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.subs[sub]; !ok {
		sh.srv.releaseBroadcast(b)
		return
	}
	ok, wasEmpty := sub.ring.push(ringEntry{frames: b.frames, b: b})
	if !ok {
		// The replay alone saturated the ring: the subscriber cannot
		// keep up; evict it like any other slow subscriber.
		sh.srv.releaseBroadcast(b)
		sh.evictLocked(sub, "resume overflow")
		return
	}
	if wasEmpty {
		sub.wakeWriter()
	}
}

// shutdown runs the graceful-close path for this shard: queue a goodbye
// in every ring, seal the rings so writers drain and exit, and refuse
// further registrations.
func (sh *shard) shutdown() {
	sh.mu.Lock()
	for sub := range sh.subs {
		sub.ring.push(ringEntry{frames: goodbyeFrames}) // best-effort: a full ring drops the goodbye
		sub.ring.seal()
		sh.removeLocked(sub)
		sub.wakeWriter()
	}
	sh.dead = true
	sh.mu.Unlock()
}

// evictLocked removes sub from the shard and tears its session down.
// The drop is counted before the subscriber count falls, so anyone who
// sees the subscriber gone also sees why. Callers hold sh.mu.
func (sh *shard) evictLocked(sub *subscriber, why string) {
	s := sh.srv
	s.met().slowDrops.Inc()
	sh.removeLocked(sub)
	sub.ring.discard(s.releaseBroadcast)
	sub.wakeWriter()
	sub.conn.Close()
	s.logf("gateway: dropped subscriber %v (%s)", sub.conn.RemoteAddr(), why)
}

// removeLocked deletes sub from the registry and settles the live-
// subscriber count and gauge. Every path (evict, drop, shutdown, dead
// peer) calls it only while sub is registered, under sh.mu, so the count
// moves exactly once per subscriber. Callers hold sh.mu.
func (sh *shard) removeLocked(sub *subscriber) {
	delete(sh.subs, sub)
	s := sh.srv
	n := s.subCount.Add(-1)
	s.met().subscribers.Set(float64(n))
}
