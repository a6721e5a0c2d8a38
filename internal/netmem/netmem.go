// Package netmem provides an in-memory net.Listener / net.Conn transport:
// buffered, deadline-aware duplex pipes that carry the gateway protocol
// without consuming file descriptors or kernel socket buffers.
//
// The vabperf ingest workloads and the gateway tests use it to stand up
// thousands of subscriber sessions in one process, with no file
// descriptor apiece, while still exercising the full wire protocol:
// framing, hello exchange, heartbeats, resume, the broadcast logs and the
// writer drain path.
// Unlike net.Pipe the conns are buffered (a write completes once it fits
// in the peer's window, like TCP), so producer and consumer scheduling
// decouple the same way they do on a real socket.
package netmem

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Default window per direction. Grows lazily from a small initial
// allocation, so idle conns stay cheap at 100k-session scale.
const (
	defaultWindow = 64 << 10
	initialBuf    = 4 << 10
)

// Addr is the address type of netmem endpoints.
type Addr struct{ Name string }

// Network returns "mem".
func (a Addr) Network() string { return "mem" }

// String returns the endpoint name.
func (a Addr) String() string { return a.Name }

// Listener accepts in-memory connections created by its Dial method.
type Listener struct {
	addr    Addr
	window  int
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

// Listen creates an in-memory listener. name is only used for addresses;
// window is the per-direction buffer bound in bytes (≤ 0 selects the
// 64 KiB default).
func Listen(name string, window int) *Listener {
	if window <= 0 {
		window = defaultWindow
	}
	return &Listener{
		addr:    Addr{Name: name},
		window:  window,
		backlog: make(chan net.Conn, 256),
		done:    make(chan struct{}),
	}
}

// Accept waits for the next Dial.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	}
}

// Close unblocks Accept and fails subsequent Dials.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.addr }

// Dial connects a new conn pair, handing the server side to Accept and
// returning the client side.
func (l *Listener) Dial() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	default:
	}
	up := newPipe(l.window)   // client → server
	down := newPipe(l.window) // server → client
	client := &Conn{rd: down, wr: up, local: Addr{Name: l.addr.Name + ".client"}, remote: l.addr}
	server := &Conn{rd: up, wr: down, local: l.addr, remote: client.local}
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "mem", Addr: l.addr, Err: net.ErrClosed}
	}
}

// Conn is one endpoint of an in-memory duplex connection.
type Conn struct {
	rd, wr        *pipe
	local, remote Addr
}

// Read reads from the inbound pipe.
func (c *Conn) Read(b []byte) (int, error) { return c.rd.read(b) }

// Write writes to the outbound pipe.
func (c *Conn) Write(b []byte) (int, error) { return c.wr.write(b) }

// WriteBuffers writes a vector of buffers as one locked operation — the
// in-memory analogue of writev. The gateway's writer drain uses it to
// land a whole batch of frames with a single lock acquisition and a
// single reader wakeup instead of one per frame.
func (c *Conn) WriteBuffers(bufs net.Buffers) (int64, error) { return c.wr.writev(bufs) }

// Close tears the connection down in both directions: the peer drains
// what was already written and then sees io.EOF; its writes (and our own
// reads and writes) fail immediately.
func (c *Conn) Close() error {
	c.wr.closeWrite()
	c.rd.closeRead()
	return nil
}

// LocalAddr returns this endpoint's address.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline bounds future Reads.
func (c *Conn) SetReadDeadline(t time.Time) error { c.rd.setReadDeadline(t); return nil }

// SetWriteDeadline bounds future Writes.
func (c *Conn) SetWriteDeadline(t time.Time) error { c.wr.setWriteDeadline(t); return nil }

// errTimeout satisfies net.Error with Timeout() == true, matching what
// deadline-aware callers (the gateway client, io loops) expect.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netmem: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var errTimeout net.Error = timeoutError{}

var errClosed = errors.New("netmem: connection closed")

// pipe is one direction of a connection: a bounded ring buffer with
// cond-based blocking and timer-driven deadlines. One reader and one
// writer goroutine at a time (more are safe, just unordered).
//
// Readers and writers wait on separate conds so a write that lands data
// wakes only a blocked reader (Signal, and only when one is actually
// waiting) instead of broadcasting to everyone touching the pipe —
// at 100k sessions the futex traffic of a shared cond dominates.
type pipe struct {
	mu    sync.Mutex
	rcond sync.Cond // readers wait here for data (or EOF/deadline)
	wcond sync.Cond // writers wait here for space (or close/deadline)

	rwait, wwait int // waiter counts: skip the futex when nobody waits

	buf  []byte // ring storage, grown on demand up to max
	r, n int    // read index, buffered bytes
	max  int

	wclosed bool // write end closed: reader drains then sees EOF
	rclosed bool // read end closed: both ends fail immediately

	rdead, wdead     time.Time
	rtimer, wtimer   *time.Timer
	rexpire, wexpire bool // deadline timer has fired
}

func newPipe(max int) *pipe {
	p := &pipe{max: max}
	p.rcond.L = &p.mu
	p.wcond.L = &p.mu
	return p
}

// wakeReaders/wakeWriters notify blocked peers. Callers hold p.mu.
// all=false wakes a single waiter (data/space handoff); all=true is for
// state changes every waiter must observe (close, deadline).
func (p *pipe) wakeReaders(all bool) {
	if p.rwait == 0 {
		return
	}
	if all {
		p.rcond.Broadcast()
	} else {
		p.rcond.Signal()
	}
}

func (p *pipe) wakeWriters(all bool) {
	if p.wwait == 0 {
		return
	}
	if all {
		p.wcond.Broadcast()
	} else {
		p.wcond.Signal()
	}
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.rclosed {
			return 0, errClosed
		}
		if p.n > 0 {
			if len(b) == 0 {
				return 0, nil
			}
			nr := p.n
			if nr > len(b) {
				nr = len(b)
			}
			first := len(p.buf) - p.r
			if first > nr {
				first = nr
			}
			copy(b, p.buf[p.r:p.r+first])
			copy(b[first:], p.buf[:nr-first])
			p.r = (p.r + nr) % len(p.buf)
			p.n -= nr
			p.wakeWriters(false) // space available
			return nr, nil
		}
		if p.wclosed {
			return 0, io.EOF
		}
		if p.deadlinePassed(&p.rdead, &p.rexpire) {
			return 0, errTimeout
		}
		p.rwait++
		p.rcond.Wait()
		p.rwait--
	}
}

func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for {
		if p.rclosed || p.wclosed {
			if total > 0 {
				return total, errClosed
			}
			return 0, errClosed
		}
		if len(b) == 0 {
			return total, nil
		}
		if space := p.max - p.n; space > 0 {
			nw := len(b)
			if nw > space {
				nw = space
			}
			p.ensure(p.n + nw)
			w := (p.r + p.n) % len(p.buf)
			first := len(p.buf) - w
			if first > nw {
				first = nw
			}
			copy(p.buf[w:], b[:first])
			copy(p.buf, b[first:nw])
			p.n += nw
			total += nw
			b = b[nw:]
			p.wakeReaders(false) // data available
			continue
		}
		if p.deadlinePassed(&p.wdead, &p.wexpire) {
			return total, errTimeout
		}
		p.wwait++
		p.wcond.Wait()
		p.wwait--
	}
}

// writev lands a vector of buffers under one lock acquisition with at
// most one reader wakeup per pass. Partially written buffers block for
// space like write; short counts only occur on error.
func (p *pipe) writev(bufs [][]byte) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, b := range bufs {
		for len(b) > 0 {
			if p.rclosed || p.wclosed {
				return total, errClosed
			}
			if space := p.max - p.n; space > 0 {
				nw := len(b)
				if nw > space {
					nw = space
				}
				p.ensure(p.n + nw)
				w := (p.r + p.n) % len(p.buf)
				first := len(p.buf) - w
				if first > nw {
					first = nw
				}
				copy(p.buf[w:], b[:first])
				copy(p.buf, b[first:nw])
				p.n += nw
				total += int64(nw)
				b = b[nw:]
				p.wakeReaders(false)
				continue
			}
			if p.deadlinePassed(&p.wdead, &p.wexpire) {
				return total, errTimeout
			}
			p.wwait++
			p.wcond.Wait()
			p.wwait--
		}
	}
	return total, nil
}

// ensure grows the ring storage to hold at least need bytes (≤ max),
// preserving buffered content.
func (p *pipe) ensure(need int) {
	if need <= len(p.buf) {
		return
	}
	sz := len(p.buf) * 2
	if sz < initialBuf {
		sz = initialBuf
	}
	for sz < need {
		sz *= 2
	}
	if sz > p.max {
		sz = p.max
	}
	nb := make([]byte, sz)
	if p.n > 0 {
		first := len(p.buf) - p.r
		if first > p.n {
			first = p.n
		}
		copy(nb, p.buf[p.r:p.r+first])
		copy(nb[first:], p.buf[:p.n-first])
	}
	p.buf = nb
	p.r = 0
}

func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.wakeReaders(true)
	p.wakeWriters(true)
	p.mu.Unlock()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.rclosed = true
	p.wakeReaders(true)
	p.wakeWriters(true)
	p.mu.Unlock()
}

// deadlinePassed reports whether the deadline is set and reached.
// Callers hold p.mu. The expired flag is set by the deadline timer so
// waiters re-check without calling time.Now on every wakeup.
func (p *pipe) deadlinePassed(dead *time.Time, expired *bool) bool {
	if dead.IsZero() {
		return false
	}
	if *expired {
		return true
	}
	if !time.Now().Before(*dead) {
		*expired = true
		return true
	}
	return false
}

func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.rdead = t
	p.rexpire = false
	p.armTimer(&p.rtimer, t, &p.rwait, &p.rcond)
	p.wakeReaders(true)
	p.mu.Unlock()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	p.wdead = t
	p.wexpire = false
	p.armTimer(&p.wtimer, t, &p.wwait, &p.wcond)
	p.wakeWriters(true)
	p.mu.Unlock()
}

// armTimer (re)schedules a broadcast at the deadline so blocked waiters
// on the given side re-check. The timer is reused across calls: deadline
// churn — one SetReadDeadline per client read at 100k sessions — must
// not allocate.
func (p *pipe) armTimer(tp **time.Timer, t time.Time, wait *int, cond *sync.Cond) {
	if t.IsZero() {
		if *tp != nil {
			(*tp).Stop()
		}
		return
	}
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	if *tp == nil {
		*tp = time.AfterFunc(d, func() {
			p.mu.Lock()
			if *wait > 0 {
				cond.Broadcast()
			}
			p.mu.Unlock()
		})
		return
	}
	(*tp).Reset(d)
}

// interface conformance checks.
var (
	_ net.Listener = (*Listener)(nil)
	_ net.Conn     = (*Conn)(nil)
)
