package benchmark

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vab/internal/gateway"
	"vab/internal/netmem"
)

// recordHandshake dials a throwaway gateway with the given options and
// returns the bytes the real client wrote during its handshake. Counting
// sinks replay them, so the server treats every sink exactly like that
// client whatever the handshake is.
func recordHandshake(opts ...gateway.DialOption) ([]byte, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln := netmem.Listen("handshake", 0)
	srv := gateway.NewServerListener(ctx, ln, func(string, ...any) {})
	defer srv.Close()
	conn, err := ln.Dial()
	if err != nil {
		return nil, err
	}
	tee := &teeConn{Conn: conn}
	c, err := gateway.NewClientConn(tee, opts...)
	if err != nil {
		return nil, fmt.Errorf("record handshake: %w", err)
	}
	defer c.Close()
	if len(tee.written) == 0 {
		return nil, fmt.Errorf("record handshake: client wrote nothing")
	}
	return tee.written, nil
}

// teeConn keeps a copy of everything written through it.
type teeConn struct {
	net.Conn
	written []byte
}

func (c *teeConn) Write(b []byte) (int, error) {
	c.written = append(c.written, b...)
	return c.Conn.Write(b)
}

// sinkConn is a counting-sink subscriber socket: Reads serve a recorded
// client handshake and then block until Close; Writes are accepted at once
// and counted. Drain costs nothing, so a fleet of sinks measures the
// server's fan-out alone. When the server reads again after the
// handshake, it has processed all of it, and ready is called.
type sinkConn struct {
	hello  []byte // handshake bytes not yet served; read-loop goroutine only
	ready  func()
	bytes  atomic.Int64
	closed atomic.Bool
	unread chan struct{}
}

var sinkAddr = netmem.Addr{Name: "sink"}

func newSinkConn(hello []byte, ready func()) *sinkConn {
	return &sinkConn{hello: hello, ready: ready, unread: make(chan struct{})}
}

func (c *sinkConn) Read(b []byte) (int, error) {
	if len(c.hello) > 0 {
		n := copy(b, c.hello)
		c.hello = c.hello[n:]
		return n, nil
	}
	if c.ready != nil {
		c.ready()
		c.ready = nil
	}
	<-c.unread
	return 0, io.EOF
}

func (c *sinkConn) Write(b []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	c.bytes.Add(int64(len(b)))
	return len(b), nil
}

// WriteBuffers matches netmem's vectored write, so sinks take the same
// server branch as real in-memory subscribers.
func (c *sinkConn) WriteBuffers(bufs net.Buffers) (int64, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	c.bytes.Add(n)
	return n, nil
}

func (c *sinkConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.unread)
	}
	return nil
}

func (c *sinkConn) LocalAddr() net.Addr              { return sinkAddr }
func (c *sinkConn) RemoteAddr() net.Addr             { return sinkAddr }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// watchConn is the server side of a probe's netmem conn. Like a sink it
// calls ready once the server reads past the handshake; the embedded
// netmem conn keeps the vectored-write path.
type watchConn struct {
	*netmem.Conn
	need  int
	got   int
	ready func()
}

func (c *watchConn) Read(b []byte) (int, error) {
	if c.got >= c.need && c.ready != nil {
		c.ready()
		c.ready = nil
	}
	n, err := c.Conn.Read(b)
	c.got += n
	return n, err
}

// countConn counts the bytes a probe client reads, to compare with the
// sinks' byte counts.
type countConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytes.Add(int64(n))
	return n, err
}

// chanListener hands the server whatever conns are pushed into it.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newChanListener() *chanListener {
	return &chanListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// add blocks until the server accepts c (or the listener closes).
func (l *chanListener) add(c net.Conn) error {
	select {
	case l.conns <- c:
		return nil
	case <-l.done:
		return net.ErrClosed
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return sinkAddr }
