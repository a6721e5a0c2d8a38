// Package gateway exposes a VAB deployment to shore-side consumers: the
// reader publishes decoded sensor readings, and the gateway streams them to
// TCP subscribers using a small length-prefixed binary protocol. This is
// the application layer of the coastal-monitoring scenario the paper
// motivates: battery-free sensors under water, a reader buoy on top, and a
// TCP feed to whoever watches the coast.
package gateway

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Protocol constants.
const (
	// Magic starts every frame, guarding against port scanners and
	// protocol mismatches.
	Magic = uint32(0x56414231) // "VAB1"
	// MaxFrameSize bounds a frame on the wire.
	MaxFrameSize = 512
	// frameHeaderSize is the fixed header: magic (4), type (1), length (4).
	frameHeaderSize = 9
	// MaxPayloadSize bounds a frame payload so the whole frame — header
	// included — fits in MaxFrameSize. Encoder and decoder enforce the
	// same bound: the decoder must not admit frames the encoder can never
	// produce.
	MaxPayloadSize = MaxFrameSize - frameHeaderSize
)

// MsgType discriminates wire messages.
type MsgType byte

// Message types. 0x01 (per-reading frames) and 0x04 (unsequenced batches)
// belong to retired data formats and are never reused.
const (
	MsgHeartbeat MsgType = 0x02 // liveness probe, gateway → client
	MsgHello     MsgType = 0x03 // protocol version, both directions
	// MsgPong answers a gateway heartbeat (client → gateway); a subscriber
	// whose pongs stop is dropped as a dead peer.
	MsgPong MsgType = 0x05
	// MsgResume requests gap replay (client → gateway).
	MsgResume MsgType = 0x06
	// MsgResumeAck acknowledges a resume with the replay window bounds.
	MsgResumeAck MsgType = 0x07
	// MsgSeqBatch carries a block of sequenced readings (gateway → client):
	// the only data frame.
	MsgSeqBatch MsgType = 0x08
	// MsgGoodbye announces a graceful server shutdown: the stream ends
	// after this frame, and reconnecting is the right response.
	MsgGoodbye MsgType = 0x09
)

// ProtocolV2 is the protocol version both hellos carry. It is the only
// one: a peer announcing anything else is not a gateway.
const ProtocolV2 = 2

// Reading is one decoded sensor sample with link metadata.
type Reading struct {
	NodeAddr     byte
	Seq          byte
	Count        uint32
	TempC        float64
	PressureMbar float64
	SNRdB        float64
	Time         time.Time
}

// Errors.
var (
	ErrBadMagic  = errors.New("gateway: bad frame magic")
	ErrOversize  = errors.New("gateway: frame exceeds MaxFrameSize")
	ErrTruncated = errors.New("gateway: truncated payload")
)

// AppendFrame appends a wire frame — magic, type, length, payload — to
// dst. Passing dst with spare capacity makes the encode allocation-free
// (the gateway's broadcast hot path reuses one buffer per flush).
func AppendFrame(dst []byte, t MsgType, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayloadSize {
		return dst, ErrOversize
	}
	out := binary.BigEndian.AppendUint32(dst, Magic)
	out = append(out, byte(t))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...), nil
}

// EncodeFrame renders a wire frame: magic, type, length, payload.
func EncodeFrame(t MsgType, payload []byte) ([]byte, error) {
	return AppendFrame(make([]byte, 0, frameHeaderSize+len(payload)), t, payload)
}

// ReadFrame reads one frame from r, returning its type and payload.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	return ReadFrameBuf(r, nil)
}

// ReadFrameBuf reads one frame from r like ReadFrame, but reuses buf's
// storage for the payload when it has the capacity — the steady-state
// read path of a long-lived subscriber allocates nothing. The returned
// payload aliases buf (grown if needed); it is valid until the next
// call with the same buffer.
func ReadFrameBuf(r io.Reader, buf []byte) (MsgType, []byte, error) {
	// The header is staged in buf as well (and overwritten by the payload
	// below, after it is parsed): a stack array would escape through the
	// io.Reader interface and cost an allocation per frame.
	if cap(buf) < frameHeaderSize {
		buf = make([]byte, 0, MaxFrameSize)
	}
	hdr := buf[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, buf, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return 0, buf, ErrBadMagic
	}
	t := MsgType(hdr[4])
	n := binary.BigEndian.Uint32(hdr[5:9])
	if n > MaxPayloadSize {
		return 0, buf, ErrOversize
	}
	var payload []byte
	if uint32(cap(buf)) >= n {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, buf, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return t, payload, nil
}
