// Package netfaults is the deterministic network-chaos layer for the
// shore-side delivery path: a seeded wrapper over net.Conn (and a matching
// Listener) that injects connection drops, read/write stalls, added
// latency, partial writes and byte corruption.
//
// It extends the replay-exact philosophy of internal/faults from the
// acoustic channel to the TCP fan-out: every injection decision is a pure
// function of (engine seed, connection index, operation index), derived
// through the acoustic fault engine's mixer, faults.SplitMix64. Two
// runs with the same seed corrupt the same byte of the same operation of
// the same connection, no matter how goroutines interleave. Timing faults
// (latency, stalls) perturb wall-clock only — they never change which
// bytes flow — so the byte-stream mutation schedule is replayable even
// though wall-clock traces are not.
//
// The op index advances once per Read and once per Write on a connection
// (independent counters per direction), so a peer that retries after a
// drop sees a fresh connection index and a fresh schedule — exactly like
// the real ocean: the storm does not care that you reconnected.
package netfaults

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"vab/internal/faults"
)

// ErrInjected is returned (wrapped) by faulted operations, so harnesses
// can tell injected failures from real ones.
var ErrInjected = errors.New("netfaults: injected fault")

// Profile sets the per-operation fault probabilities and magnitudes. The
// zero value injects nothing.
type Profile struct {
	Name string

	// DropPerOp is the per-operation probability the connection is killed
	// before the operation runs (the wrapper closes the underlying conn and
	// returns an error, as a mid-stream RST would).
	DropPerOp float64
	// StallPerOp is the per-operation probability of a StallMs pause — a
	// congested backhaul hiccup long enough to trip dead-peer detection
	// when sustained.
	StallPerOp float64
	// StallMs is the stall duration in milliseconds.
	StallMs float64
	// LatencyMs adds up to this much uniform per-operation latency (mean
	// LatencyMs/2) — the baseline jitter of a busy link.
	LatencyMs float64
	// PartialPerOp is the per-write probability that only a prefix of the
	// buffer reaches the wire before the connection dies — the failure
	// mode that leaves a half-written frame on the peer's socket.
	PartialPerOp float64
	// CorruptPerOp is the per-operation probability that one bit of the
	// transferred bytes is flipped (reads corrupt after receive, writes
	// corrupt a copy before send, so the caller's buffer is untouched).
	CorruptPerOp float64
}

// Scale returns the profile with every probability multiplied by
// intensity (clamped to [0, 1]); magnitudes (latency, stall duration) are
// unchanged. Intensity 0 injects nothing.
func (p Profile) Scale(intensity float64) Profile {
	if intensity < 0 {
		intensity = 0
	}
	clamp := func(v float64) float64 {
		v *= intensity
		if v > 1 {
			return 1
		}
		return v
	}
	p.Name = fmt.Sprintf("%s:%g", p.Name, intensity)
	p.DropPerOp = clamp(p.DropPerOp)
	p.StallPerOp = clamp(p.StallPerOp)
	p.PartialPerOp = clamp(p.PartialPerOp)
	p.CorruptPerOp = clamp(p.CorruptPerOp)
	return p
}

// Validate reports structurally impossible profiles.
func (p Profile) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DropPerOp", p.DropPerOp}, {"StallPerOp", p.StallPerOp},
		{"PartialPerOp", p.PartialPerOp}, {"CorruptPerOp", p.CorruptPerOp},
	} {
		if f.v < 0 || f.v > 1 || math.IsNaN(f.v) {
			return fmt.Errorf("netfaults: %s %.3g outside [0, 1]", f.name, f.v)
		}
	}
	if p.StallMs < 0 || p.LatencyMs < 0 {
		return fmt.Errorf("netfaults: negative duration (stall %.3g ms, latency %.3g ms)", p.StallMs, p.LatencyMs)
	}
	return nil
}

// Engine derives the injection schedule. It is stateless apart from the
// connection-index allocator and the drop and stall counters: the plan for
// (conn, op) is a pure function of the seed, so one engine may wrap any
// number of concurrent connections.
type Engine struct {
	seed int64
	prof Profile

	nextConn atomic.Uint64

	// Injected drops and stalls so far, for tests that assert a profile
	// fired.
	drops  atomic.Int64
	stalls atomic.Int64

	// sleep is the timing-fault clock; tests replace it to observe
	// injected delays without waiting them out.
	sleep func(time.Duration)
}

// NewEngine validates the profile and builds an engine for it.
func NewEngine(seed int64, prof Profile) (*Engine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Engine{seed: seed, prof: prof, sleep: time.Sleep}, nil
}

// stream is a deterministic draw sequence for one (conn, op, direction)
// triple. Each fault class consumes draws in a fixed order, so adding a
// class to a profile never shifts another class's draws.
type stream struct{ state uint64 }

func newStream(seed int64, conn, op uint64, dir uint64) stream {
	h := faults.SplitMix64(uint64(seed))
	h = faults.SplitMix64(h ^ conn*0x9e3779b97f4a7c15)
	h = faults.SplitMix64(h ^ op*0xbf58476d1ce4e5b9)
	h = faults.SplitMix64(h ^ dir)
	return stream{state: h}
}

func (s *stream) next() uint64 {
	s.state = faults.SplitMix64(s.state)
	return s.state
}

// f64 returns a uniform draw in [0, 1).
func (s *stream) f64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Directions salt the draw stream so a connection's reads and writes have
// independent schedules.
const (
	dirRead  = 0x52 // 'R'
	dirWrite = 0x57 // 'W'
)

// opPlan is the injection decision for one operation.
type opPlan struct {
	drop       bool
	delay      time.Duration
	partial    float64 // fraction of the buffer written before the cut; <0 = none
	corrupt    bool
	corruptOff uint64 // byte offset modulo the transfer length
	corruptBit uint8
}

// plan computes the decision for (conn, op, dir). Pure: no engine state is
// read or written, so concurrent planning is race-free and replay-exact.
func (e *Engine) plan(conn, op uint64, dir uint64) opPlan {
	s := newStream(e.seed, conn, op, dir)
	var p opPlan
	p.partial = -1
	// Fixed draw order: drop, stall, latency, partial, corrupt.
	p.drop = s.f64() < e.prof.DropPerOp
	if s.f64() < e.prof.StallPerOp {
		p.delay += time.Duration(e.prof.StallMs * float64(time.Millisecond))
	}
	if lat := s.f64() * e.prof.LatencyMs; e.prof.LatencyMs > 0 {
		p.delay += time.Duration(lat * float64(time.Millisecond))
	}
	if frac := s.f64(); dir == dirWrite && frac < e.prof.PartialPerOp {
		p.partial = s.f64()
	} else {
		_ = s.next() // keep the corrupt draws aligned across directions
	}
	if s.f64() < e.prof.CorruptPerOp {
		p.corrupt = true
		p.corruptOff = s.next()
		p.corruptBit = uint8(s.next() & 7)
	}
	return p
}

// Op is the exported view of one operation's injection decision — the
// schedule exposed for deterministic harnesses (the E14 campaign) that
// model sessions arithmetically instead of opening sockets. It carries
// exactly what plan decides, so a modeled session and a live wrapped
// session fault at the same (conn, op) points.
type Op struct {
	Drop    bool    // connection killed before the operation
	Partial bool    // write delivers only a prefix, then the conn dies
	Corrupt bool    // one bit of the operation's bytes is flipped
	DelayMs float64 // stall + latency applied before the operation
}

// WriteOp returns the injection decision for write #op on connection
// #conn. Pure: same engine seed, same answer, regardless of call order.
func (e *Engine) WriteOp(conn, op uint64) Op { return e.exportPlan(conn, op, dirWrite) }

func (e *Engine) exportPlan(conn, op uint64, dir uint64) Op {
	pl := e.plan(conn, op, dir)
	return Op{
		Drop:    pl.drop,
		Partial: pl.partial >= 0,
		Corrupt: pl.corrupt,
		DelayMs: float64(pl.delay) / float64(time.Millisecond),
	}
}

// Conn wraps a net.Conn with the engine's schedule. Reads and writes each
// advance their own op counter; other net.Conn methods delegate.
type Conn struct {
	net.Conn
	eng *Engine
	idx uint64

	readOp  atomic.Uint64
	writeOp atomic.Uint64

	// scratch is the write-corruption copy buffer (the caller's slice must
	// not be mutated). Writes are serialized per conn by the callers this
	// package serves; a torn concurrent write would corrupt a TCP stream
	// with or without chaos.
	scratch []byte
}

// Wrap attaches conn to the engine's schedule under the next connection
// index.
func (e *Engine) Wrap(conn net.Conn) *Conn {
	return e.WrapIndexed(conn, e.nextConn.Add(1)-1)
}

// WrapIndexed attaches conn under an explicit schedule index — harnesses
// that want conn i of a replay to line up across runs pin the index.
func (e *Engine) WrapIndexed(conn net.Conn, idx uint64) *Conn {
	return &Conn{Conn: conn, eng: e, idx: idx}
}

// injectedErr labels an injected failure with its class.
func injectedErr(class string) error {
	return fmt.Errorf("%w: %s", ErrInjected, class)
}

// Read applies the read schedule: optional delay, drop before the read,
// and bit corruption of the received bytes.
func (c *Conn) Read(p []byte) (int, error) {
	op := c.readOp.Add(1) - 1
	pl := c.eng.plan(c.idx, op, dirRead)
	if pl.delay > 0 {
		c.pause(pl.delay)
	}
	if pl.drop {
		c.eng.drops.Add(1)
		c.Conn.Close()
		return 0, injectedErr("read drop")
	}
	n, err := c.Conn.Read(p)
	if pl.corrupt && n > 0 {
		p[pl.corruptOff%uint64(n)] ^= 1 << pl.corruptBit
	}
	return n, err
}

// Write applies the write schedule: optional delay, drop, partial write
// (a prefix reaches the wire, then the conn dies) and bit corruption of a
// copy of the outgoing bytes.
func (c *Conn) Write(p []byte) (int, error) {
	op := c.writeOp.Add(1) - 1
	pl := c.eng.plan(c.idx, op, dirWrite)
	if pl.delay > 0 {
		c.pause(pl.delay)
	}
	if pl.drop {
		c.eng.drops.Add(1)
		c.Conn.Close()
		return 0, injectedErr("write drop")
	}
	buf := p
	if pl.corrupt && len(p) > 0 {
		if cap(c.scratch) < len(p) {
			c.scratch = make([]byte, len(p))
		}
		buf = c.scratch[:len(p)]
		copy(buf, p)
		buf[pl.corruptOff%uint64(len(p))] ^= 1 << pl.corruptBit
	}
	if pl.partial >= 0 && len(p) > 1 {
		keep := 1 + int(pl.partial*float64(len(p)-1))
		n, err := c.Conn.Write(buf[:keep])
		c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, injectedErr("partial write")
	}
	n, err := c.Conn.Write(buf)
	return n, err
}

// pause sleeps for d (capped at one second so a pathological profile
// cannot hang a harness) and counts it when it is a stall.
func (c *Conn) pause(d time.Duration) {
	if d > time.Second {
		d = time.Second
	}
	if d >= time.Duration(c.eng.prof.StallMs*float64(time.Millisecond)) && c.eng.prof.StallMs > 0 {
		c.eng.stalls.Add(1)
	}
	c.eng.sleep(d)
}

// Listener wraps a net.Listener so every accepted connection joins the
// engine's schedule in accept order.
type Listener struct {
	net.Listener
	eng *Engine
}

// Listen wraps ln.
func (e *Engine) Listen(ln net.Listener) *Listener {
	return &Listener{Listener: ln, eng: e}
}

// Accept wraps the next connection.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.eng.Wrap(conn), nil
}
