package gateway

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"
)

// ErrServerClosing is returned by Next when the gateway announces a
// graceful shutdown (MsgGoodbye): the stream is complete up to this
// point, and reconnecting with backoff is the right response.
var ErrServerClosing = errors.New("gateway: server closing")

// Client subscribes to a gateway's reading stream.
type Client struct {
	conn net.Conn
	// payloadBuf is reused by ReadFrameBuf so the steady-state receive
	// path allocates nothing.
	payloadBuf []byte
	// queue holds readings decoded from a batch frame that Next has not
	// yet handed out; qpos indexes the next one, and queueSeq is the
	// stream sequence of queue[0].
	queue    []Reading
	qpos     int
	queueSeq uint64
	// lastSeq is the stream sequence of the last reading Next returned
	// (on a resume session, the resume point until then).
	lastSeq uint64
	// ack* record the MsgResumeAck bounds once it arrives: replayFrom
	// moves lastSeq, and the resume tests read all three.
	ackReplayFrom uint64
	ackLiveNext   uint64
	ackSeen       bool
	// awaitingAck drops data frames on a resume session until the
	// MsgResumeAck arrives: everything the server fanned out before it
	// processed MsgResume lands ahead of the ack and is re-sent by the
	// replay, so passing it through would duplicate.
	awaitingAck bool
}

// DialOption customizes Dial.
type DialOption func(*dialConfig)

type dialConfig struct {
	// handshakeTimeout bounds the wait for the gateway's hello frame;
	// Dial and NewClientConn use 5 s.
	handshakeTimeout time.Duration
	resume           bool
	resumeLast       uint64
}

// WithResume requests gap replay: after its hello the client sends
// MsgResume carrying the last stream sequence it saw (0 on a fresh
// session), and the gateway replays the missed window before the live
// stream continues.
func WithResume(lastSeq uint64) DialOption {
	return func(c *dialConfig) {
		c.resume = true
		c.resumeLast = lastSeq
	}
}

// Dial connects to a gateway and verifies the protocol handshake.
func Dial(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{handshakeTimeout: 5 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClientConn(conn, cfg)
}

// NewClientConn runs the gateway handshake over an existing connection —
// any net.Conn, not just TCP. The vabperf ingest workloads use it to
// subscribe over netmem conns; it also suits tunneled or pre-dialed
// transports. The conn is closed on handshake failure.
func NewClientConn(conn net.Conn, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{handshakeTimeout: 5 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	return newClientConn(conn, cfg)
}

func newClientConn(conn net.Conn, cfg dialConfig) (*Client, error) {
	c := &Client{conn: conn}
	// Expect the hello frame promptly.
	conn.SetReadDeadline(time.Now().Add(cfg.handshakeTimeout))
	t, payload, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: handshake: %w", err)
	}
	if t != MsgHello || len(payload) != 1 || payload[0] != ProtocolV2 {
		conn.Close()
		return nil, fmt.Errorf("gateway: unexpected handshake frame type %d %v", t, payload)
	}
	if _, err := conn.Write(helloFrame); err != nil {
		conn.Close()
		return nil, fmt.Errorf("gateway: hello: %w", err)
	}
	if cfg.resume {
		frame, err := EncodeFrame(MsgResume, AppendResume(nil, cfg.resumeLast))
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("gateway: resume request: %w", err)
		}
		c.lastSeq = cfg.resumeLast
		c.awaitingAck = true
	}
	conn.SetReadDeadline(time.Time{})
	return c, nil
}

// Next blocks until the next reading arrives, transparently answering
// heartbeats with pongs and unpacking batch frames. The deadline (zero =
// none) bounds the wait. A graceful server shutdown surfaces as
// ErrServerClosing.
func (c *Client) Next(deadline time.Time) (Reading, error) {
	if c.qpos < len(c.queue) {
		rd := c.queue[c.qpos]
		c.lastSeq = c.queueSeq + uint64(c.qpos)
		c.qpos++
		return rd, nil
	}
	c.conn.SetReadDeadline(deadline)
	for {
		t, payload, err := ReadFrameBuf(c.conn, c.payloadBuf)
		if cap(payload) > cap(c.payloadBuf) {
			c.payloadBuf = payload[:0]
		}
		if err != nil {
			return Reading{}, err
		}
		switch t {
		case MsgHeartbeat:
			// Best-effort: a failed pong will surface as a read error on
			// the next frame anyway.
			c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			c.conn.Write(pongFrame)
			continue
		case MsgSeqBatch:
			if c.awaitingAck {
				continue // will arrive again in the replay
			}
			c.queue, c.queueSeq, err = DecodeSeqBatchInto(c.queue[:0], payload)
			if err != nil {
				return Reading{}, err
			}
			c.lastSeq = c.queueSeq
			c.qpos = 1
			return c.queue[0], nil
		case MsgResumeAck:
			c.ackReplayFrom, c.ackLiveNext, err = DecodeResumeAck(payload)
			if err != nil {
				return Reading{}, err
			}
			c.ackSeen = true
			c.awaitingAck = false
			if c.ackReplayFrom > 0 {
				// The next reading carries replayFrom. Below the resume
				// point it means a restarted gateway's fresh sequence
				// space, which a later resume must start from.
				c.lastSeq = c.ackReplayFrom - 1
			}
			continue
		case MsgGoodbye:
			return Reading{}, ErrServerClosing
		default:
			return Reading{}, fmt.Errorf("gateway: unexpected frame type %d", t)
		}
	}
}

// LastSeq returns the stream sequence of the last reading Next returned
// (0 before any; on a resume session the WithResume point until the
// gateway's ack, then the sequence just before the ack's replayFrom) —
// the value to pass to WithResume on the next dial.
func (c *Client) LastSeq() uint64 { return c.lastSeq }

// Close terminates the subscription.
func (c *Client) Close() error { return c.conn.Close() }
