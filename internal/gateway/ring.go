package gateway

import "sync"

// ringEntry is one unit of outbound work for a subscriber's writer
// goroutine: the frames to write (aliasing a broadcast arena, or the
// pre-encoded constant frames of heartbeats and goodbyes) and the arena
// reference to release once written (nil for constant frames).
type ringEntry struct {
	frames [][]byte
	b      *broadcast
}

// ringCapacity is the per-subscriber outbound queue depth, in entries
// (one entry per flush or control message, not per frame). A full ring
// marks the subscriber as too slow, mirroring the old channel semantics.
const ringCapacity = 64

// frameRing is a fixed-capacity single-consumer queue between the shard
// flusher (producer) and the subscriber's writer goroutine (consumer).
// It exists so one writer wakeup can drain many queued flushes in a
// single writev, collapsing per-frame syscalls. Its mutex only orders
// the producer/consumer handoff — it never spans I/O.
type frameRing struct {
	mu      sync.Mutex
	buf     []ringEntry
	head, n int
	sealed  bool
}

func newFrameRing() *frameRing {
	return &frameRing{buf: make([]ringEntry, ringCapacity)}
}

// push enqueues one entry. ok is false when the ring is full or sealed
// (the caller evicts or drops the entry); wasEmpty tells the producer
// the writer may be parked and needs a wakeup.
func (r *frameRing) push(e ringEntry) (ok, wasEmpty bool) {
	r.mu.Lock()
	if r.sealed || r.n == len(r.buf) {
		r.mu.Unlock()
		return false, false
	}
	wasEmpty = r.n == 0
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
	r.mu.Unlock()
	return true, wasEmpty
}

// pushN enqueues a group of entries atomically: all of them or none
// (ok=false on overflow or seal, and the caller evicts). Grouping the
// pushes of a multi-flush fan-out pass under one lock acquisition — and
// one writer wakeup — is what keeps per-flush overhead flat when the
// publisher runs ahead of the writers.
func (r *frameRing) pushN(es []ringEntry) (ok, wasEmpty bool) {
	r.mu.Lock()
	if r.sealed || r.n+len(es) > len(r.buf) {
		r.mu.Unlock()
		return false, false
	}
	wasEmpty = r.n == 0
	for _, e := range es {
		r.buf[(r.head+r.n)%len(r.buf)] = e
		r.n++
	}
	r.mu.Unlock()
	return true, wasEmpty
}

// popInto moves up to len(dst) entries into dst, returning how many and
// whether the ring is sealed with nothing left (writer should exit).
func (r *frameRing) popInto(dst []ringEntry) (n int, done bool) {
	r.mu.Lock()
	for n < len(dst) && r.n > 0 {
		dst[n] = r.buf[r.head]
		r.buf[r.head] = ringEntry{}
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		n++
	}
	done = r.sealed && r.n == 0
	r.mu.Unlock()
	return n, done
}

// seal marks end-of-stream: pushes fail from now on, and the writer
// exits once it has drained what remains (the graceful-close path, so
// queued frames — the goodbye included — still go out).
func (r *frameRing) seal() {
	r.mu.Lock()
	r.sealed = true
	r.mu.Unlock()
}

// discard seals the ring and drops everything still queued, handing each
// entry to release (for arena refcounts). Used on eviction and teardown,
// where queued frames will never be written.
func (r *frameRing) discard(release func(*broadcast)) {
	r.mu.Lock()
	r.sealed = true
	for r.n > 0 {
		e := r.buf[r.head]
		r.buf[r.head] = ringEntry{}
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		if e.b != nil {
			release(e.b) // lock-free: atomic dec + freelist push
		}
	}
	r.mu.Unlock()
}
