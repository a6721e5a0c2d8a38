// Package bitio provides MSB-first bit-level encoding over byte slices:
// the foundation of the repo's compact wire formats. At backscatter
// uplink rates of tens of bits per second, every framing bit is
// throughput lost, so payload codecs (node packed readings, gateway
// reading batches) count bits, not bytes.
//
// Writer appends into a caller-supplied buffer and Reader parses in
// place, so steady-state encode/decode paths allocate nothing. Varints
// use LEB128 7-bit groups embedded in the bitstream; signed values are
// zigzag-mapped first so small magnitudes of either sign stay in one
// group.
package bitio

import "errors"

// ErrOutOfBits is returned by Reader when a read runs past the buffer.
var ErrOutOfBits = errors.New("bitio: read past end of buffer")

// ErrVarintOverflow is returned when a varint does not terminate within
// the 10 groups a uint64 can need.
var ErrVarintOverflow = errors.New("bitio: varint overflows 64 bits")

// maxVarintGroups bounds a uint64 LEB128 encoding: ⌈64/7⌉ groups.
const maxVarintGroups = 10

// ZigZag maps a signed value onto the unsigned line so small magnitudes
// of either sign encode to small varints: 0→0, −1→1, 1→2, −2→3, …
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer packs bits MSB-first into a byte slice. The zero value writes
// into a fresh buffer; Reset(dst) makes it append into caller storage
// for allocation-free reuse. Call Finish to flush the trailing partial
// byte and obtain the encoded bytes.
type Writer struct {
	buf  []byte
	cur  byte // partial byte being filled, bits at the bottom
	ncur uint // bits currently in cur (0..7)
	bits int  // total bits written since Reset
}

// Reset discards any pending state and directs subsequent writes into
// dst's storage (appending from len(dst)). Passing a slice with spare
// capacity makes the whole encode allocation-free.
func (w *Writer) Reset(dst []byte) {
	w.buf = dst
	w.cur = 0
	w.ncur = 0
	w.bits = 0
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64]; higher bits of v are ignored.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.bits += int(n)
	for n > 0 {
		free := 8 - w.ncur
		take := n
		if take > free {
			take = free
		}
		// Peel the top `take` bits of the remaining n-bit value.
		w.cur = w.cur<<take | byte(v>>(n-take))&byte((1<<take)-1)
		w.ncur += take
		n -= take
		if w.ncur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.ncur = 0, 0
		}
	}
}

// WriteUvarint appends v as LEB128: 7-bit groups, low group first, high
// bit of each byte-group marking continuation.
func (w *Writer) WriteUvarint(v uint64) {
	for v >= 0x80 {
		w.WriteBits(v&0x7F|0x80, 8)
		v >>= 7
	}
	w.WriteBits(v, 8)
}

// WriteVarint appends v zigzag-mapped as an unsigned varint.
func (w *Writer) WriteVarint(v int64) { w.WriteUvarint(ZigZag(v)) }

// Finish flushes the trailing partial byte (zero-padded at the bottom)
// and returns the encoded bytes. The Writer must be Reset before reuse.
func (w *Writer) Finish() []byte {
	if w.ncur > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.ncur))
		w.cur, w.ncur = 0, 0
	}
	return w.buf
}

// Reader consumes an MSB-first bitstream from a byte slice in place.
type Reader struct {
	buf []byte
	pos int // bit cursor
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.buf)*8 - r.pos }

// ReadBits consumes the next n bits (MSB-first) and returns them in the
// low bits of the result. n must be in [0, 64].
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if int(n) > r.Remaining() {
		return 0, ErrOutOfBits
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos >> 3
		bitOff := uint(r.pos & 7)
		avail := 8 - bitOff
		take := n
		if take > avail {
			take = avail
		}
		chunk := uint64(r.buf[byteIdx]>>(avail-take)) & ((1 << take) - 1)
		v = v<<take | chunk
		r.pos += int(take)
		n -= take
	}
	return v, nil
}

// ReadUvarint consumes an LEB128 varint written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	var v uint64
	var shift uint
	for group := 0; group < maxVarintGroups; group++ {
		b, err := r.ReadBits(8)
		if err != nil {
			return 0, err
		}
		if group == maxVarintGroups-1 && b > 1 {
			// The 10th group carries the top bit of a uint64 at most.
			return 0, ErrVarintOverflow
		}
		v |= (b & 0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, ErrVarintOverflow
}

// ReadVarint consumes a zigzag varint written by WriteVarint.
func (r *Reader) ReadVarint() (int64, error) {
	u, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	return UnZigZag(u), nil
}
