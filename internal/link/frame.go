package link

import (
	"encoding/binary"
	"errors"
)

// FrameType distinguishes the frames flowing through a VAB network.
type FrameType byte

// Frame types. Queries and commands travel on the downlink (reader →
// nodes), data and acks on the backscatter uplink.
const (
	FrameData  FrameType = 0x01 // sensor payload, node → reader
	FrameQuery FrameType = 0x02 // poll for a node's data, reader → node
	FrameCmd   FrameType = 0x03 // configuration command, reader → node
	FrameAck   FrameType = 0x04 // acknowledgement, either direction
)

// Valid reports whether t is a known frame type.
func (t FrameType) Valid() bool { return t >= FrameData && t <= FrameAck }

// BroadcastAddr addresses every node in range.
const BroadcastAddr = 0xFF

// MaxPayload bounds the payload so a whole frame (with FEC) stays within a
// fraction of the channel coherence time at VAB bit rates.
const MaxPayload = 64

// headerLen is type + addr + seq + payload length.
const headerLen = 4

// trailerLen is the CRC-16.
const trailerLen = 2

// Frame is the link-layer unit. The wire layout is:
//
//	byte 0: Type
//	byte 1: Addr (destination for downlink, source for uplink)
//	byte 2: Seq
//	byte 3: len(Payload)
//	bytes 4…: Payload
//	last 2:  CRC-16/CCITT over everything before it (big endian)
type Frame struct {
	Type    FrameType
	Addr    byte
	Seq     byte
	Payload []byte
}

// Errors returned by frame decoding.
var (
	ErrFrameTooShort = errors.New("link: frame shorter than header+CRC")
	ErrBadCRC        = errors.New("link: frame CRC mismatch")
	ErrBadLength     = errors.New("link: frame length field inconsistent")
	ErrBadType       = errors.New("link: unknown frame type")
	ErrPayloadSize   = errors.New("link: payload exceeds MaxPayload")
)

// WireSize returns the marshalled frame size in bytes.
func (f *Frame) WireSize() int { return headerLen + len(f.Payload) + trailerLen }

// Marshal serializes the frame, appending the CRC.
func (f *Frame) Marshal() ([]byte, error) {
	if !f.Type.Valid() {
		return nil, ErrBadType
	}
	if len(f.Payload) > MaxPayload {
		return nil, ErrPayloadSize
	}
	out := make([]byte, 0, f.WireSize())
	out = append(out, byte(f.Type), f.Addr, f.Seq, byte(len(f.Payload)))
	out = append(out, f.Payload...)
	crc := CRC16(out)
	out = binary.BigEndian.AppendUint16(out, crc)
	return out, nil
}

// Unmarshal parses and validates a frame from wire bytes.
func Unmarshal(data []byte) (*Frame, error) {
	if len(data) < headerLen+trailerLen {
		return nil, ErrFrameTooShort
	}
	body := data[:len(data)-trailerLen]
	want := binary.BigEndian.Uint16(data[len(data)-trailerLen:])
	if CRC16(body) != want {
		return nil, ErrBadCRC
	}
	f := &Frame{
		Type: FrameType(data[0]),
		Addr: data[1],
		Seq:  data[2],
	}
	if !f.Type.Valid() {
		return nil, ErrBadType
	}
	n := int(data[3])
	if n != len(data)-headerLen-trailerLen {
		return nil, ErrBadLength
	}
	if n > MaxPayload {
		return nil, ErrPayloadSize
	}
	f.Payload = append([]byte(nil), data[headerLen:headerLen+n]...)
	return f, nil
}

// Codec bundles the full link-layer pipeline between frames and channel
// chips: marshal → bits → Hamming FEC → interleave → line code, and the
// inverse. A Codec is stateless and safe for concurrent use.
type Codec struct {
	Code            LineCode
	FEC             bool
	InterleaveDepth int // 1 disables interleaving; must divide codeword count when >1
}

// DefaultCodec returns the configuration the end-to-end system uses: FM0
// line coding with Hamming FEC at interleave depth 7 (one full codeword per
// column, so a 7-chip burst splits across 7 codewords).
func DefaultCodec() Codec {
	return Codec{Code: FM0, FEC: true, InterleaveDepth: 7}
}

// EncodeFrame runs the full transmit pipeline, returning channel chips.
func (c Codec) EncodeFrame(f *Frame) ([]byte, error) {
	wire, err := f.Marshal()
	if err != nil {
		return nil, err
	}
	bits := BytesToBits(wire)
	if c.FEC {
		bits, err = HammingEncode(bits)
		if err != nil {
			return nil, err
		}
	}
	if c.InterleaveDepth > 1 {
		bits, err = Interleave(bits, c.InterleaveDepth)
		if err != nil {
			return nil, err
		}
	}
	return c.Code.Encode(bits)
}

// DecodeStats reports what the receive pipeline observed.
type DecodeStats struct {
	CorrectedBits int // Hamming corrections applied
}

// DecodeFrame runs the full receive pipeline on channel chips.
func (c Codec) DecodeFrame(chips []byte) (*Frame, DecodeStats, error) {
	var stats DecodeStats
	bits, err := c.Code.Decode(chips)
	if err != nil {
		return nil, stats, err
	}
	if c.InterleaveDepth > 1 {
		bits, err = Deinterleave(bits, c.InterleaveDepth)
		if err != nil {
			return nil, stats, err
		}
	}
	if c.FEC {
		var n int
		bits, n, err = HammingDecode(bits)
		if err != nil {
			return nil, stats, err
		}
		stats.CorrectedBits = n
	}
	wire, err := BitsToBytes(bits)
	if err != nil {
		return nil, stats, err
	}
	f, err := Unmarshal(wire)
	return f, stats, err
}

// ChipLength returns the number of channel chips EncodeFrame produces for a
// frame with the given payload size, letting the PHY size its demodulation
// window before decoding.
func (c Codec) ChipLength(payloadLen int) int {
	bits := (headerLen + payloadLen + trailerLen) * 8
	if c.FEC {
		bits = bits / 4 * 7
	}
	return bits * c.Code.ChipsPerBit()
}
