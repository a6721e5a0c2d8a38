package gateway

import (
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vab/internal/workpool"
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

// writeGuard is the hang guard on a conn write: a write that makes no
// progress for this long fails and drops its subscriber. The guard
// deadline is shared by a shard's writes and moves only when it has
// grown guardRefresh stale, so a write gets between writeGuard −
// guardRefresh and writeGuard, and a subscriber re-arms its conn
// deadline at most once per guardRefresh.
const (
	writeGuard   = 5 * time.Second
	guardRefresh = time.Second
)

// panicStage names a shard goroutine in the *workpool.PanicError a
// recovered panic comes back as; its Index is the shard's.
const panicStage = "gateway_shard"

// shard is an independently locked slice of the subscriber registry with
// its own broadcast log and writer goroutines. The flush path appends
// each arena to every shard's log under the server's seqMu; the shard's
// writers then write the log to each subscriber from its own cursor, so
// no per-subscriber queue or goroutine sits between a flush and the
// socket.
//
// A wake pass (run by whichever writer finds an append waiting) evicts
// subscribers that fell too far behind, drops silent peers, recycles
// arenas every cursor has passed, and claims every other subscriber with
// entries to write onto the work list. Writers take claimed subscribers
// off the list one at a time; only the claimant writes a subscriber, and
// it puts the subscriber back on the list if more work arrived while it
// wrote. One clock-free rule keeps a blocked conn from holding back
// anyone else: no writer enters a conn write as the last writer outside
// one, and a writer leaving unclaimed work behind wakes a parked writer
// when no other is awake. Writers therefore track writes in progress,
// not subscribers, and one idle while two others are out of conn writes
// exits.
type shard struct {
	srv *Server
	idx int // position in the server's shard set

	log  [logSlots]logSlot
	head atomic.Uint64 // the next position to append, under seqMu

	due   atomic.Bool   // an append is waiting for a wake pass
	wake  chan struct{} // capacity 1: wakes one parked writer
	sweep atomic.Int64  // dead-peer threshold for the next pass (ns; 0 = none)

	// writing counts writers inside a write. It rises under mu and falls
	// without it as soon as the write returns.
	writing atomic.Int32

	// mu guards everything below, each subscriber's gone, claimed and
	// idx, and the hand-over of a subscriber from one claimant to the
	// next.
	mu sync.Mutex
	// subs holds registered subscribers and evicted ones not yet
	// unlisted: both hold cursors that pin arenas.
	subs  []*subscriber
	dead  bool   // closed or retired: writers exit once subs is empty
	start int    // where the next pass starts its walk
	tail  uint64 // the oldest position whose arena this shard still holds
	// work holds claimed subscribers waiting for a writer; work[next:]
	// are not taken yet.
	work    []*subscriber
	next    int
	writers int    // writer goroutines
	parked  int    // writers waiting on wake
	guard   int64  // hang-guard write deadline (UnixNano)
	spawn   func() // sh.writer, bound once so starting a writer allocates no closure
}

func newShard(s *Server) *shard {
	sh := &shard{srv: s, wake: make(chan struct{}, 1)}
	sh.spawn = sh.writer
	return sh
}

// append adds one entry to the log and asks for a wake pass. Callers
// hold seqMu.
func (sh *shard) append(b *broadcast) {
	p := sh.head.Load()
	slot := &sh.log[p%logSlots]
	slot.pos.Store(p)
	slot.b.Store(b)
	sh.head.Store(p + 1)
	sh.due.Store(true)
	sh.wakeOne()
}

// wakeOne wakes a parked writer, if any; wakes coalesce.
func (sh *shard) wakeOne() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// retire marks the shard dead and wakes a writer; the writers exit once
// the subscriber slice is empty.
func (sh *shard) retire() {
	sh.mu.Lock()
	sh.dead = true
	sh.mu.Unlock()
	sh.wakeOne()
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

// startWriterLocked starts one more writer. Callers hold sh.mu.
func (sh *shard) startWriterLocked() {
	sh.writers++
	sh.srv.wg.Add(1)
	go sh.spawn()
}

// writeScratch is one writer's reusable write buffers.
type writeScratch struct {
	bufs net.Buffers
	flat []byte
}

// writer is one of the shard's writer goroutines: claim a subscriber,
// write its next batch, release it, until there is nothing to claim;
// then park, or exit when the shard is done or enough other writers are
// free.
func (sh *shard) writer() {
	defer sh.srv.wg.Done()
	var ws writeScratch
	sh.mu.Lock()
	for {
		sub := sh.claimLocked()
		if sub == nil {
			if sh.dead && len(sh.subs) == 0 || sh.writers-int(sh.writing.Load()) > 2 {
				sh.writers--
				sh.mu.Unlock()
				sh.wakeOne() // a parked writer re-checks whether to exit too
				return
			}
			sh.parked++
			sh.mu.Unlock()
			<-sh.wake
			sh.mu.Lock()
			sh.parked--
			continue
		}
		// A write may block until the hang guard: never enter one as the
		// last writer outside a write, and leave an awake writer behind
		// for the rest of the list.
		n := int(sh.writing.Add(1))
		if n >= sh.writers {
			sh.startWriterLocked()
		} else if sh.next < len(sh.work) && sh.writers-n-sh.parked <= 0 {
			sh.wakeOne()
		}
		guard := sh.guard
		sh.mu.Unlock()
		res := sh.write(sub, &ws, guard)
		sh.mu.Lock()
		sh.releaseLocked(sub, res)
	}
}

// claimLocked takes the next subscriber off the work list, running the
// wake pass first when an append is waiting for one. Gone subscribers
// met on the list are unlisted instead. It returns nil when nothing is
// left to claim. Callers hold sh.mu.
func (sh *shard) claimLocked() *subscriber {
	if sh.due.Load() && sh.due.Swap(false) {
		sh.pass()
	}
	for sh.next < len(sh.work) {
		sub := sh.work[sh.next]
		sh.work[sh.next] = nil
		sh.next++
		if !sub.gone {
			return sub
		}
		sh.unlistLocked(sub)
	}
	sh.work, sh.next = sh.work[:0], 0
	return nil
}

// queueLocked claims sub for the writers and puts it on the work list.
// Callers hold sh.mu and have checked that sub is not claimed.
func (sh *shard) queueLocked(sub *subscriber) {
	sub.claimed = true
	sh.work = append(sh.work, sub)
}

// writeResult is how a writer's batch for one subscriber ended.
type writeResult uint8

const (
	wrote       writeResult = iota
	writeEnded              // the goodbye went out, or the write failed or panicked
	writeLapped             // the cursor's next slot was overwritten
)

// write sends sub's next batch: the pending hello, then log[cursor,
// head) up to writerBatch entries, with a pending resume reply spliced in
// at its position. The caller claimed sub, so no other writer touches its
// cursor, hello or armed deadline.
func (sh *shard) write(sub *subscriber, ws *writeScratch, guard int64) (res writeResult) {
	defer func() {
		sh.writing.Add(-1)
		if v := recover(); v != nil {
			sh.srv.shardPanic(sh.idx, v)
			res = writeEnded
		}
	}()
	cur := sub.cursor.Load()
	// head before reply: a head past reply.at was appended after the
	// reply was set, so this load then sees the reply.
	end := min(sh.head.Load(), cur+writerBatch)
	reply := sub.reply.Load()
	if reply != nil && reply.at <= end {
		end = reply.at
	} else {
		reply = nil
	}
	bufs := ws.bufs[:0]
	if sub.hello {
		bufs = append(bufs, helloFrame)
	}
	bufs, last := sh.gather(bufs, cur, end)
	if cur < end && last == nil {
		return writeLapped
	}
	if reply != nil {
		bufs = append(bufs, reply.frames...)
	}
	ws.bufs = bufs
	err := sh.srv.writeFrames(sub, bufs, &ws.flat, guard)
	sub.hello = false
	sub.cursor.Store(end)
	if reply != nil {
		sub.reply.Store(nil)
		sh.srv.releaseBroadcast(reply)
	}
	if err != nil || last == goodbyeEntry {
		return writeEnded
	}
	return wrote
}

// releaseLocked settles a written subscriber: it drops or evicts it when
// the write ended the session, unlists it once gone, puts it back on the
// work list when more arrived while it was written, and otherwise lets a
// later pass claim it. Callers hold sh.mu.
func (sh *shard) releaseLocked(sub *subscriber, res writeResult) {
	switch res {
	case writeLapped:
		if !sub.gone {
			sh.evictLocked(sub, "lapped")
		}
	case writeEnded:
		if !sub.gone {
			sh.removeLocked(sub)
		}
		sub.conn.Close()
	}
	switch {
	case sub.gone:
		sh.unlistLocked(sub) // the cursor stops pinning arenas only now
	case sub.reply.Load() != nil || sub.cursor.Load() < sh.head.Load():
		sh.work = append(sh.work, sub)
	default:
		sub.claimed = false
	}
}

// pass walks the subscriber slice once, starting one place later than
// the previous pass so no subscriber is always served first. It evicts
// subscribers more than logSlots entries behind the head, drops silent
// peers when a heartbeat sweep is due, claims every other unclaimed
// subscriber with entries to write, and then releases this shard's hold
// on every arena all cursors have passed, subscribers still being written
// included. A panic comes back logged as a *workpool.PanicError; the
// next pass walks again. Callers hold sh.mu.
func (sh *shard) pass() {
	defer func() {
		if v := recover(); v != nil {
			sh.srv.shardPanic(sh.idx, v)
		}
	}()
	s := sh.srv
	m := s.met()
	head := sh.head.Load()
	silence := time.Duration(sh.sweep.Swap(0))
	now := time.Now()
	sh.refreshGuardLocked(now)
	if sh.next > 0 { // keep the list from growing while writers never drain it
		n := copy(sh.work, sh.work[sh.next:])
		clear(sh.work[n:])
		sh.work, sh.next = sh.work[:n], 0
	}
	low, lag, live := head, uint64(0), int64(0)
	if sh.start >= len(sh.subs) {
		sh.start = 0
	}
	for _, part := range [2][]*subscriber{sh.subs[sh.start:], sh.subs[:sh.start]} {
		for _, sub := range part {
			cur := min(sub.cursor.Load(), head) // a writer may be past our head snapshot
			low = min(low, cur)
			if sub.gone {
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
				if behind > 0 && !sub.claimed {
					sh.queueLocked(sub)
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
	if silence > 0 {
		m.heartbeats.Add(live)
	}
	m.lag.Observe(float64(lag))
}

// refreshGuardLocked moves the hang-guard deadline once it has grown
// guardRefresh stale; callers pass a clock reading they already took.
// Callers hold sh.mu.
func (sh *shard) refreshGuardLocked(now time.Time) {
	if g := now.Add(writeGuard).UnixNano(); g-sh.guard > int64(guardRefresh) {
		sh.guard = g
	}
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

// removeLocked ends sub's registration: it marks the subscriber gone and
// settles the live-subscriber count and gauge. Every path (evict, drop,
// dead peer, failed write) calls it only while sub is not yet gone, under
// sh.mu, so the count moves exactly once per subscriber. A claimed sub is
// unlisted by the writer that holds it; an unclaimed one is queued so a
// writer unlists it.
func (sh *shard) removeLocked(sub *subscriber) {
	sub.gone = true
	sh.srv.addSubscribers(-1)
	if !sub.claimed {
		sh.queueLocked(sub)
		sh.wakeOne()
	}
}

// unlistLocked deletes a gone sub from the subscriber slice. Callers
// hold sh.mu and the sub's claim.
func (sh *shard) unlistLocked(sub *subscriber) {
	last := len(sh.subs) - 1
	sh.subs[sub.idx] = sh.subs[last]
	sh.subs[sub.idx].idx = sub.idx
	sh.subs[last] = nil
	sh.subs = sh.subs[:last]
}

// shardPanic logs a panic recovered in shard idx's goroutines and keeps
// it for Close to return.
func (s *Server) shardPanic(idx int, v any) {
	err := &workpool.PanicError{Stage: panicStage, Index: idx, Value: v, Stack: debug.Stack()}
	s.logf("gateway: %v", err)
	s.panicMu.Lock()
	s.panics = append(s.panics, err)
	s.panicMu.Unlock()
}
