package node

import (
	"fmt"
	"math"

	"vab/internal/bitio"
	"vab/internal/link"
)

// Packed multi-reading payload (payload format v2). At VAB uplink rates
// every frame costs a full poll — preamble, acquisition, MAC turnaround —
// so carrying one 8-byte reading per response wastes most of the airtime
// on per-frame overhead. The packed payload amortizes it: one FrameData
// payload carries a batch of consecutive readings, quantized at physical
// precision (temperature 0.01 °C, pressure 1 mbar) and delta-coded
// against the previous sample, as an MSB-first bitio stream:
//
//	4 bits  magic 0xC (distinguishes packed payloads from the v1 layout)
//	4 bits  reading count N (1..15)
//	base    count uvarint · temp zigzag varint (centi-°C) ·
//	        pressure zigzag varint (mbar)
//	N-1 ×   Δcount zigzag · Δtemp zigzag · Δpressure zigzag
//	        (each delta against the previous reading)
//	trailing bits/bytes are padding and ignored
//
// Varints are LEB128 7-bit groups (bitio). Consecutive sensor samples
// differ by one count and by sub-degree drift, so a typical delta costs
// three groups (3 bytes) against the 8 bytes of a v1 reading.
//
// The decoder accepts both formats: DecodeReadings dispatches on the
// magic nibble and falls back to the v1 single-reading layout, so mixed
// fleets — and every committed seeded transcript — keep decoding.

// packedMagic tags the high nibble of a packed payload's first byte.
const packedMagic = 0xC

// maxPackedCount is the most readings the 4-bit count field can carry.
const maxPackedCount = 15

// PackedPayloadSize returns the guaranteed worst-case encoded size in
// bytes of a packed payload holding batch consecutive EnvSensor
// readings: header byte + base (count ≤ 5 groups, temp and pressure ≤ 3
// each) + (batch−1) deltas (count +1 → 1 group, temp and pressure
// bounded by their 16-bit field range → 3 groups each). PackedEnvSensor
// pads its payloads to exactly this size so the reader's demodulation
// window is fixed per configuration.
func PackedPayloadSize(batch int) int {
	if batch < 1 {
		return 0
	}
	return 12 + 7*(batch-1)
}

// MaxPackedBatch is the largest batch whose worst-case packed payload
// still fits a link frame: 8 readings in 61 ≤ 64 payload bytes.
var MaxPackedBatch = func() int {
	k := 1
	for PackedPayloadSize(k+1) <= link.MaxPayload {
		k++
	}
	return k
}()

// quantize maps a reading onto its wire grid, rejecting non-finite
// values (a varint of a NaN cast is platform-defined garbage).
func quantize(rd Reading) (count, centi, mbar int64, err error) {
	if math.IsNaN(rd.TempC) || math.IsInf(rd.TempC, 0) ||
		math.IsNaN(rd.PressureMbar) || math.IsInf(rd.PressureMbar, 0) {
		return 0, 0, 0, fmt.Errorf("node: non-finite reading (temp %v, pressure %v)", rd.TempC, rd.PressureMbar)
	}
	return int64(rd.Count), int64(math.Round(rd.TempC * 100)), int64(math.Round(rd.PressureMbar)), nil
}

// AppendPacked encodes readings as a packed payload appended to dst,
// delta-coding each reading against its predecessor. dst with spare
// capacity makes the encode allocation-free. The result is unpadded;
// fixed-size producers (PackedEnvSensor) pad to PackedPayloadSize.
func AppendPacked(dst []byte, readings []Reading) ([]byte, error) {
	if len(readings) == 0 || len(readings) > maxPackedCount {
		return dst, fmt.Errorf("node: packed payload needs 1..%d readings, have %d", maxPackedCount, len(readings))
	}
	var w bitio.Writer
	w.Reset(dst)
	w.WriteBits(packedMagic, 4)
	w.WriteBits(uint64(len(readings)), 4)
	prevCount, prevCenti, prevMbar, err := quantize(readings[0])
	if err != nil {
		return dst, err
	}
	w.WriteUvarint(uint64(prevCount))
	w.WriteVarint(prevCenti)
	w.WriteVarint(prevMbar)
	for _, rd := range readings[1:] {
		count, centi, mbar, err := quantize(rd)
		if err != nil {
			return dst, err
		}
		w.WriteVarint(count - prevCount)
		w.WriteVarint(centi - prevCenti)
		w.WriteVarint(mbar - prevMbar)
		prevCount, prevCenti, prevMbar = count, centi, mbar
	}
	return w.Finish(), nil
}

// AppendDecodedReadings decodes a FrameData payload in either format,
// appending the readings to dst (reuse dst's capacity for an
// allocation-free steady state). It reports whether the payload parsed.
// Packed payloads are recognized by the magic nibble; anything else
// falls back to the v1 8-byte single-reading layout.
func AppendDecodedReadings(dst []Reading, p []byte) ([]Reading, bool) {
	if len(p) > 0 && p[0]>>4 == packedMagic {
		if out, ok := appendUnpacked(dst, p); ok {
			return out, true
		}
	}
	rd, ok := DecodeReading(p)
	if !ok {
		return dst, false
	}
	return append(dst, rd), true
}

// DecodeReadings is the allocating convenience form of
// AppendDecodedReadings.
func DecodeReadings(p []byte) ([]Reading, bool) {
	return AppendDecodedReadings(nil, p)
}

// maxQuantized bounds the quantized values a decoder admits. Physical
// readings live in 16-bit ranges; admitting up to ±2³¹ keeps the codec
// general while guaranteeing float64(v)/100 still round-trips exactly
// through re-quantization.
const maxQuantized = math.MaxInt32

// appendUnpacked parses a packed payload, tolerating trailing padding.
func appendUnpacked(dst []Reading, p []byte) ([]Reading, bool) {
	r := bitio.NewReader(p)
	if v, err := r.ReadBits(4); err != nil || v != packedMagic {
		return dst, false
	}
	n, err := r.ReadBits(4)
	if err != nil || n == 0 {
		return dst, false
	}
	count, err := r.ReadUvarint()
	if err != nil || count > math.MaxUint32 {
		return dst, false
	}
	centi, err := r.ReadVarint()
	if err != nil {
		return dst, false
	}
	mbar, err := r.ReadVarint()
	if err != nil {
		return dst, false
	}
	base := len(dst)
	c, t, m := int64(count), centi, mbar
	for i := uint64(0); i < n; i++ {
		if i > 0 {
			dc, err := r.ReadVarint()
			if err != nil {
				return dst[:base], false
			}
			dt, err := r.ReadVarint()
			if err != nil {
				return dst[:base], false
			}
			dm, err := r.ReadVarint()
			if err != nil {
				return dst[:base], false
			}
			c, t, m = c+dc, t+dt, m+dm
		}
		if c < 0 || c > math.MaxUint32 || t < -maxQuantized || t > maxQuantized ||
			m < -maxQuantized || m > maxQuantized {
			return dst[:base], false
		}
		dst = append(dst, Reading{Count: uint32(c), TempC: float64(t) / 100, PressureMbar: float64(m)})
	}
	return dst, true
}

// PackedEnvSensor samples an EnvSensor in batches: every Read draws
// batch consecutive readings and returns them as one packed payload,
// zero-padded to the fixed PackedPayloadSize(batch) so the reader's
// demodulation window — which must be known before decoding — stays
// constant. One poll therefore delivers batch readings instead of one
// at a fixed per-frame overhead.
type PackedEnvSensor struct {
	env     *EnvSensor
	batch   int
	scratch []Reading
	buf     []byte
}

// NewPackedEnvSensor creates a packed sensor with the same statistics
// (and noise stream) as NewEnvSensor. batch must be in [1,
// MaxPackedBatch] so the padded payload fits a link frame.
func NewPackedEnvSensor(tempC, depthM float64, seed int64, batch int) (*PackedEnvSensor, error) {
	if batch < 1 || batch > MaxPackedBatch {
		return nil, fmt.Errorf("node: packed batch %d outside [1, %d]", batch, MaxPackedBatch)
	}
	return &PackedEnvSensor{
		env:     NewEnvSensor(tempC, depthM, seed),
		batch:   batch,
		scratch: make([]Reading, 0, batch),
		buf:     make([]byte, 0, PackedPayloadSize(batch)),
	}, nil
}

// PayloadSize returns the fixed padded payload size Read produces.
func (s *PackedEnvSensor) PayloadSize() int { return PackedPayloadSize(s.batch) }

// Read samples the next batch readings and returns the padded packed
// payload. The returned slice is reused across calls; the link codec
// copies it into the marshalled frame before the next poll.
func (s *PackedEnvSensor) Read() []byte {
	s.scratch = s.scratch[:0]
	for i := 0; i < s.batch; i++ {
		s.scratch = append(s.scratch, s.env.sample())
	}
	p, err := AppendPacked(s.buf[:0], s.scratch)
	size := PackedPayloadSize(s.batch)
	if err != nil || len(p) > size {
		// Unreachable by construction: sample() quantizes onto 16-bit
		// grids whose worst-case deltas PackedPayloadSize accounts for.
		panic(fmt.Sprintf("node: packed encode broke its size bound (%d > %d): %v", len(p), size, err))
	}
	for len(p) < size {
		p = append(p, 0)
	}
	s.buf = p
	return p
}
