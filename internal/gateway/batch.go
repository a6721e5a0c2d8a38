package gateway

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"vab/internal/bitio"
)

// MsgSeqBatch is the gateway's one data frame: the first reading's stream
// sequence, then one block of N readings delta-coded against a shared
// base. Readings in the frame carry consecutive sequences firstSeq,
// firstSeq+1, …
//
//	uvarint firstSeq               (≥ 1)
//	uvarint N                      (≥ 1)
//	base:   addr(1) seq(1) · uvarint count · zigzag temp (centi-°C) ·
//	        zigzag pressure (mbar) · zigzag SNR (centi-dB) ·
//	        base time int64 UnixNano (big endian, 8 bytes)
//	N−1 ×   addr(1) seq(1) · zigzag Δcount · zigzag Δtemp ·
//	        zigzag Δpressure · zigzag ΔSNR · zigzag Δtime (ns)
//	        (every delta against the base reading)
//
// Varints are standard byte-level LEB128 (encoding/binary); signed
// fields are zigzag-mapped (bitio.ZigZag). Quantization: temperature
// 0.01 °C, pressure 1 mbar, SNR 0.01 dB — lossless for the sensor
// pipeline, whose payloads are quantized at least that coarsely at the
// node — and timestamps are exact nanoseconds.

// ErrBadBatch reports a malformed MsgSeqBatch payload.
var ErrBadBatch = fmt.Errorf("gateway: malformed reading batch")

// batchQuantBound bounds the quantized field values either side admits:
// ±2³¹ is far beyond physical range yet small enough that the
// float64(v)/100 grid re-quantizes exactly.
const batchQuantBound = math.MaxInt32

// appendZigZag appends a zigzag varint.
func appendZigZag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, bitio.ZigZag(v))
}

// quantizeReading maps one reading onto the wire grid, rejecting
// non-finite and out-of-range fields. Publish checks every reading with
// it, so nothing that reaches the encoder can fail here.
func quantizeReading(rd Reading) (centi, mbar, snr int64, err error) {
	if math.IsNaN(rd.TempC) || math.IsInf(rd.TempC, 0) ||
		math.IsNaN(rd.PressureMbar) || math.IsInf(rd.PressureMbar, 0) ||
		math.IsNaN(rd.SNRdB) || math.IsInf(rd.SNRdB, 0) {
		return 0, 0, 0, fmt.Errorf("gateway: non-finite reading fields")
	}
	centi = int64(math.Round(rd.TempC * 100))
	mbar = int64(math.Round(rd.PressureMbar))
	snr = int64(math.Round(rd.SNRdB * 100))
	if !quantOK(centi) || !quantOK(mbar) || !quantOK(snr) {
		return 0, 0, 0, fmt.Errorf("gateway: reading fields outside quantizable range")
	}
	return centi, mbar, snr, nil
}

// quantOK reports whether a quantized value is within the range the
// encoder produces.
func quantOK(v int64) bool { return v >= -batchQuantBound && v <= batchQuantBound }

// AppendSeqBatch appends a MsgSeqBatch payload for rds, the first of
// which carries stream sequence firstSeq, to dst (reuse dst's capacity
// for an allocation-free steady state). It returns ErrOversize when the
// payload would exceed MaxPayloadSize — split the batch and retry — and
// rejects non-finite or out-of-range field values.
func AppendSeqBatch(dst []byte, firstSeq uint64, rds []Reading) ([]byte, error) {
	if firstSeq == 0 {
		return dst, fmt.Errorf("gateway: sequence numbering starts at 1")
	}
	mark := len(dst)
	out, err := appendBlock(binary.AppendUvarint(dst, firstSeq), rds)
	if err != nil {
		return dst, err
	}
	if len(out)-mark > MaxPayloadSize {
		return dst, ErrOversize
	}
	return out, nil
}

// appendBlock appends the delta-coded block of rds (the MsgSeqBatch body
// after its sequence prefix) to dst.
func appendBlock(dst []byte, rds []Reading) ([]byte, error) {
	if len(rds) == 0 {
		return dst, fmt.Errorf("gateway: empty reading batch")
	}
	out := binary.AppendUvarint(dst, uint64(len(rds)))
	base := rds[0]
	bCenti, bMbar, bSNR, err := quantizeReading(base)
	if err != nil {
		return dst, err
	}
	bTime := base.Time.UnixNano()
	out = append(out, base.NodeAddr, base.Seq)
	out = binary.AppendUvarint(out, uint64(base.Count))
	out = appendZigZag(out, bCenti)
	out = appendZigZag(out, bMbar)
	out = appendZigZag(out, bSNR)
	out = binary.BigEndian.AppendUint64(out, uint64(bTime))
	for _, rd := range rds[1:] {
		centi, mbar, snr, err := quantizeReading(rd)
		if err != nil {
			return dst, err
		}
		out = append(out, rd.NodeAddr, rd.Seq)
		out = appendZigZag(out, int64(rd.Count)-int64(base.Count))
		out = appendZigZag(out, centi-bCenti)
		out = appendZigZag(out, mbar-bMbar)
		out = appendZigZag(out, snr-bSNR)
		out = appendZigZag(out, rd.Time.UnixNano()-bTime)
	}
	return out, nil
}

// DecodeSeqBatchInto parses a MsgSeqBatch payload, appending the readings
// to dst (reuse dst's capacity for an allocation-free steady state) and
// returning the first reading's stream sequence. The payload must be
// fully consumed — trailing bytes are an error, so any accepted payload
// is one the encoder could have produced.
func DecodeSeqBatchInto(dst []Reading, p []byte) ([]Reading, uint64, error) {
	if len(p) > MaxPayloadSize {
		// Never admit a payload the (canonical) encoder could not have
		// framed.
		return dst, 0, ErrBadBatch
	}
	firstSeq, n := binary.Uvarint(p)
	if n <= 0 || firstSeq == 0 {
		return dst, 0, ErrBadBatch
	}
	out, err := decodeBlockInto(dst, p[n:])
	if err != nil {
		return dst, 0, err
	}
	return out, firstSeq, nil
}

// batchCursor walks a batch payload.
type batchCursor struct {
	p   []byte
	pos int
}

func (c *batchCursor) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.p[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

func (c *batchCursor) zigzag() (int64, bool) {
	u, ok := c.uvarint()
	return bitio.UnZigZag(u), ok
}

func (c *batchCursor) bytes(n int) ([]byte, bool) {
	if len(c.p)-c.pos < n {
		return nil, false
	}
	b := c.p[c.pos : c.pos+n]
	c.pos += n
	return b, true
}

// decodeBlockInto parses a delta-coded block, appending the readings to
// dst.
func decodeBlockInto(dst []Reading, p []byte) ([]Reading, error) {
	c := batchCursor{p: p}
	n, ok := c.uvarint()
	if !ok || n == 0 || n > uint64(len(p)) {
		return dst, ErrBadBatch
	}
	hdr, ok := c.bytes(2)
	if !ok {
		return dst, ErrBadBatch
	}
	addr, seq := hdr[0], hdr[1]
	count, ok := c.uvarint()
	if !ok || count > math.MaxUint32 {
		return dst, ErrBadBatch
	}
	bCenti, ok1 := c.zigzag()
	bMbar, ok2 := c.zigzag()
	bSNR, ok3 := c.zigzag()
	tb, ok4 := c.bytes(8)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return dst, ErrBadBatch
	}
	if !quantOK(bCenti) || !quantOK(bMbar) || !quantOK(bSNR) {
		return dst, ErrBadBatch
	}
	bTime := int64(binary.BigEndian.Uint64(tb))
	mark := len(dst)
	dst = append(dst, Reading{
		NodeAddr: addr, Seq: seq, Count: uint32(count),
		TempC: float64(bCenti) / 100, PressureMbar: float64(bMbar),
		SNRdB: float64(bSNR) / 100, Time: time.Unix(0, bTime).UTC(),
	})
	for i := uint64(1); i < n; i++ {
		hdr, ok := c.bytes(2)
		if !ok {
			return dst[:mark], ErrBadBatch
		}
		dCount, ok1 := c.zigzag()
		dCenti, ok2 := c.zigzag()
		dMbar, ok3 := c.zigzag()
		dSNR, ok4 := c.zigzag()
		dTime, ok5 := c.zigzag()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
			return dst[:mark], ErrBadBatch
		}
		cnt := int64(count) + dCount
		centi, mbar, snr := bCenti+dCenti, bMbar+dMbar, bSNR+dSNR
		if cnt < 0 || cnt > math.MaxUint32 || !quantOK(centi) || !quantOK(mbar) || !quantOK(snr) {
			return dst[:mark], ErrBadBatch
		}
		dst = append(dst, Reading{
			NodeAddr: hdr[0], Seq: hdr[1], Count: uint32(cnt),
			TempC: float64(centi) / 100, PressureMbar: float64(mbar),
			SNRdB: float64(snr) / 100, Time: time.Unix(0, bTime+dTime).UTC(),
		})
	}
	if c.pos != len(p) {
		return dst[:mark], ErrBadBatch
	}
	return dst, nil
}
