package gateway

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// logSlots is the depth of each shard's broadcast log, in entries (one
// per flush, heartbeat or goodbye). It is also the slow-subscriber bound:
// a subscriber more than logSlots entries behind the head is evicted,
// because the slot holding its next entry has been overwritten.
const logSlots = 64

// logSlot is one log entry: the arena to write and the log position it
// was appended at. Appends store pos before b and readers load b before
// pos, so a reader that finds its own position holds that position's
// arena.
type logSlot struct {
	pos atomic.Uint64
	b   atomic.Pointer[broadcast]
}

// Constant log entries, shared by every shard and never recycled.
var (
	heartbeatEntry = &broadcast{frames: [][]byte{heartbeatFrame}}
	goodbyeEntry   = &broadcast{frames: [][]byte{goodbyeFrame}}
)

// shard is an independently locked slice of the subscriber registry with
// its own broadcast log and wake goroutine. The flush path appends each
// arena to every shard's log under the server's seqMu; each subscriber's
// writer then writes the log from its own cursor, so no per-subscriber
// queue sits between a flush and the socket. The wake goroutine wakes
// writers that had caught up, evicts writers that fell too far behind and
// recycles arenas every cursor has passed.
type shard struct {
	srv *Server

	log  [logSlots]logSlot
	head atomic.Uint64 // the next position to append, under seqMu

	kick    chan struct{} // capacity 1: a wake pass is due
	closing atomic.Bool   // the pass after the next kick is the last
	sweep   atomic.Int64  // dead-peer threshold for the next pass (ns; 0 = none)

	// mu guards subs, dead, start, tail and each subscriber's idx, and
	// orders every store to a subscriber's gone flag.
	mu sync.Mutex
	// subs holds registered subscribers and evicted ones whose writer is
	// still unwinding: both hold cursors that pin arenas.
	subs  []*subscriber
	dead  bool   // no further registrations (server closing)
	start int    // where the next pass starts its walk
	tail  uint64 // the oldest position whose arena this shard still holds
}

func newShard(s *Server) *shard {
	return &shard{srv: s, kick: make(chan struct{}, 1)}
}

// append adds one entry to the log and schedules a wake pass. Callers
// hold seqMu.
func (sh *shard) append(b *broadcast) {
	p := sh.head.Load()
	slot := &sh.log[p%logSlots]
	slot.pos.Store(p)
	slot.b.Store(b)
	sh.head.Store(p + 1)
	sh.kickPass()
}

func (sh *shard) kickPass() {
	select {
	case sh.kick <- struct{}{}:
	default:
	}
}

// gather appends the frames of log positions [from, to) to bufs and
// returns the last arena gathered. The arena is nil when the caller was
// lapped: a slot in the range now holds a newer position, and nothing
// from it may be written.
func (sh *shard) gather(bufs net.Buffers, from, to uint64) (net.Buffers, *broadcast) {
	var b *broadcast
	for p := from; p < to; p++ {
		slot := &sh.log[p%logSlots]
		b = slot.b.Load()
		if slot.pos.Load() != p {
			return bufs, nil
		}
		bufs = append(bufs, b.frames...)
	}
	return bufs, b
}

// run is the shard's wake goroutine: one pass per kick, until the pass
// that follows Close's goodbye (or a SetShards retirement).
func (sh *shard) run() {
	defer sh.srv.wg.Done()
	for {
		<-sh.kick
		last := sh.closing.Load()
		sh.pass()
		if last {
			return
		}
	}
}

// pass walks the subscriber slice once, starting one place later than
// the previous pass so no subscriber is always woken first. It evicts
// subscribers more than logSlots entries behind the head, drops silent
// peers when a heartbeat sweep is due, wakes writers with entries to
// write, and then releases this shard's hold on every arena all cursors
// have passed, writers still unwinding from an eviction included.
func (sh *shard) pass() {
	s := sh.srv
	m := s.met()
	head := sh.head.Load()
	silence := time.Duration(sh.sweep.Swap(0))
	var now time.Time
	if silence > 0 {
		now = time.Now()
	}
	sh.mu.Lock()
	low, lag, live := head, uint64(0), int64(0)
	if sh.start >= len(sh.subs) {
		sh.start = 0
	}
	for _, part := range [2][]*subscriber{sh.subs[sh.start:], sh.subs[:sh.start]} {
		for _, sub := range part {
			cur := min(sub.cursor.Load(), head) // a writer may be past our head snapshot
			low = min(low, cur)
			if sub.gone.Load() {
				continue
			}
			behind := head - cur
			var idle time.Duration
			if silence > 0 {
				idle = now.Sub(time.Unix(0, sub.lastSeen.Load()))
			}
			switch {
			case behind > logSlots:
				sh.evictLocked(sub, "slow subscriber")
			case idle > silence:
				m.hbDrops.Inc()
				s.logf("gateway: dropping dead peer %v (silent %v)", sub.conn.RemoteAddr(), idle.Round(time.Millisecond))
				sh.removeLocked(sub)
				sub.conn.Close()
			default:
				live++
				lag = max(lag, behind)
				if behind > 0 {
					sub.wakeWriter()
				}
			}
		}
	}
	sh.start++
	for ; sh.tail < low; sh.tail++ {
		// A slot already overwritten has lost its arena to the GC.
		slot := &sh.log[sh.tail%logSlots]
		if b := slot.b.Load(); slot.pos.Load() == sh.tail {
			s.releaseBroadcast(b)
		}
	}
	sh.mu.Unlock()
	if silence > 0 {
		m.heartbeats.Add(live)
	}
	m.lag.Observe(float64(lag))
}

// evictLocked removes a too-slow sub and closes its conn. The drop is
// counted before the subscriber count falls, so anyone who sees the
// subscriber gone also sees why. Callers hold sh.mu.
func (sh *shard) evictLocked(sub *subscriber, why string) {
	s := sh.srv
	s.met().slowDrops.Inc()
	sh.removeLocked(sub)
	sub.conn.Close()
	s.logf("gateway: dropped subscriber %v (%s)", sub.conn.RemoteAddr(), why)
}

// removeLocked ends sub's registration: it marks the subscriber gone,
// settles the live-subscriber count and gauge, and wakes the writer so it
// exits. Every path (evict, drop, dead peer, writer exit) calls it only
// while sub is not yet gone, under sh.mu, so the count moves exactly once
// per subscriber. The writer unlists sub from subs itself, on exit.
func (sh *shard) removeLocked(sub *subscriber) {
	sub.gone.Store(true)
	n := sh.srv.subCount.Add(-1)
	sh.srv.met().subscribers.Set(float64(n))
	sub.wakeWriter()
}

// unlistLocked deletes sub from the subscriber slice once its writer has
// exited. Callers hold sh.mu.
func (sh *shard) unlistLocked(sub *subscriber) {
	last := len(sh.subs) - 1
	sh.subs[sub.idx] = sh.subs[last]
	sh.subs[sub.idx].idx = sub.idx
	sh.subs[last] = nil
	sh.subs = sh.subs[:last]
}
