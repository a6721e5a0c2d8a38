package bitio

import (
	"errors"
	"math/rand"
	"testing"
)

// mask returns a value with the lowest w bits set.
func mask(w uint) uint64 {
	if w == 0 {
		return 0
	}
	if w >= 64 {
		return ^uint64(0)
	}
	return (1 << w) - 1
}

// TestRoundTripFixedWidths writes a hand-picked (value, width) sequence
// that stresses byte-boundary crossings and reads it back exactly.
func TestRoundTripFixedWidths(t *testing.T) {
	type pair struct {
		w uint
		v uint64
	}
	seq := []pair{
		{1, 1}, {2, 2}, {3, 5}, {5, 0x1F}, {7, 0x55}, {8, 0xA5},
		{9, 0x1AB}, {13, 0x1234}, {16, 0xBEEF}, {24, 0xC0FFEE},
		{33, 0x1_0000_0001}, {64, 0xDEADBEEF_FEEDFACE},
	}
	var w Writer
	total := 0
	for _, p := range seq {
		w.WriteBits(p.v, p.w)
		total += int(p.w)
	}
	buf := w.Finish()
	if want := (total + 7) / 8; len(buf) != want {
		t.Fatalf("buffer length %d, want %d (total bits %d)", len(buf), want, total)
	}
	r := NewReader(buf)
	for i, p := range seq {
		got, err := r.ReadBits(p.w)
		if err != nil {
			t.Fatalf("ReadBits failed at step %d: %v", i, err)
		}
		if want := p.v & mask(p.w); got != want {
			t.Fatalf("step %d: got 0x%X want 0x%X (width %d)", i, got, want, p.w)
		}
	}
}

// TestRoundTripRandomWidths is the property test the packed codecs lean
// on: any sequence of (value, width) pairs reads back bit-exactly.
func TestRoundTripRandomWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		widths := make([]uint, n)
		values := make([]uint64, n)
		var w Writer
		for i := range widths {
			widths[i] = uint(1 + rng.Intn(64))
			values[i] = rng.Uint64() & mask(widths[i])
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Finish())
		for i := range widths {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
			if got != values[i] {
				t.Fatalf("trial %d step %d: got 0x%X want 0x%X (width %d)",
					trial, i, got, values[i], widths[i])
			}
		}
		if rem := r.Remaining(); rem >= 8 {
			t.Fatalf("trial %d: %d bits of padding left, want < 8", trial, rem)
		}
	}
}

// TestFlushBehavior pins Finish: a partial byte flushes exactly once
// (top-aligned), and byte-aligned streams gain no extra byte.
func TestFlushBehavior(t *testing.T) {
	var w1 Writer
	w1.WriteBits(0x1FFF, 13)
	buf1 := w1.Finish()
	if len(buf1) != 2 {
		t.Fatalf("13 bits: got %d bytes, want 2", len(buf1))
	}
	// 13 ones then 3 zero pad bits: 0xFF 0xF8.
	if buf1[0] != 0xFF || buf1[1] != 0xF8 {
		t.Fatalf("13-bit flush = %x, want fff8", buf1)
	}
	var w2 Writer
	w2.WriteBits(0xABCD, 16)
	buf2 := w2.Finish()
	if len(buf2) != 2 || buf2[0] != 0xAB || buf2[1] != 0xCD {
		t.Fatalf("16-bit flush = %x, want abcd", buf2)
	}
}

// TestVarintRoundTrip covers the unsigned and zigzag forms across group
// boundaries and the extremes of both ranges.
func TestVarintRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 129, 16383, 16384, 1<<32 - 1, 1 << 62, ^uint64(0)}
	svals := []int64{0, 1, -1, 63, -64, 64, -65, 1<<31 - 1, -(1 << 31), 1<<62 - 1, -(1 << 62)}
	var w Writer
	for _, v := range uvals {
		w.WriteUvarint(v)
	}
	for _, v := range svals {
		w.WriteVarint(v)
	}
	r := NewReader(w.Finish())
	for i, want := range uvals {
		got, err := r.ReadUvarint()
		if err != nil || got != want {
			t.Fatalf("uvarint %d: got %d err %v, want %d", i, got, err, want)
		}
	}
	for i, want := range svals {
		got, err := r.ReadVarint()
		if err != nil || got != want {
			t.Fatalf("varint %d: got %d err %v, want %d", i, got, err, want)
		}
	}
}

// TestZigZag pins the mapping the wire formats document.
func TestZigZag(t *testing.T) {
	cases := []struct {
		s int64
		u uint64
	}{{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4}, {1<<63 - 1, ^uint64(0) - 1}, {-1 << 63, ^uint64(0)}}
	for _, c := range cases {
		if got := ZigZag(c.s); got != c.u {
			t.Errorf("ZigZag(%d) = %d, want %d", c.s, got, c.u)
		}
		if got := UnZigZag(c.u); got != c.s {
			t.Errorf("UnZigZag(%d) = %d, want %d", c.u, got, c.s)
		}
	}
}

// TestReaderErrors exercises the truncation and overflow paths.
func TestReaderErrors(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); !errors.Is(err, ErrOutOfBits) {
		t.Fatalf("ReadBits past end: err = %v, want ErrOutOfBits", err)
	}
	// A varint that never terminates: 10 continuation groups of garbage.
	var w Writer
	for i := 0; i < 10; i++ {
		w.WriteBits(0xFF, 8)
	}
	r = NewReader(w.Finish())
	if _, err := r.ReadUvarint(); !errors.Is(err, ErrVarintOverflow) {
		t.Fatalf("overlong varint: err = %v, want ErrVarintOverflow", err)
	}
	// Truncated varint: one continuation group then end of buffer.
	r = NewReader([]byte{0x80})
	if _, err := r.ReadUvarint(); !errors.Is(err, ErrOutOfBits) {
		t.Fatalf("truncated varint: err = %v, want ErrOutOfBits", err)
	}
}

// TestWriterReuseAllocs pins the allocation-free append contract: a
// Writer Reset onto a buffer with capacity, and a Reader rebuilt by value,
// run a full encode/decode cycle without allocating.
func TestWriterReuseAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	var w Writer
	var r Reader
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset(buf[:0])
		for i := uint64(0); i < 16; i++ {
			w.WriteBits(i, 5)
			w.WriteVarint(int64(i) - 8)
		}
		out := w.Finish()
		r = NewReader(out)
		for i := uint64(0); i < 16; i++ {
			if v, err := r.ReadBits(5); err != nil || v != i {
				t.Fatalf("bits: %d %v", v, err)
			}
			if v, err := r.ReadVarint(); err != nil || v != int64(i)-8 {
				t.Fatalf("varint: %d %v", v, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("encode/decode cycle allocated %.1f times, want 0", allocs)
	}
}
