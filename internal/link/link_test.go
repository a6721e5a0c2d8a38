package link

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 1024 {
			data = data[:1024]
		}
		bits := BytesToBits(data)
		if len(bits) != len(data)*8 {
			return false
		}
		back, err := BitsToBytes(bits)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsToBytesErrors(t *testing.T) {
	if _, err := BitsToBytes(make([]byte, 7)); err == nil {
		t.Error("non-multiple-of-8 accepted")
	}
	if _, err := BitsToBytes([]byte{0, 1, 2, 0, 0, 0, 0, 0}); err == nil {
		t.Error("non-binary bit accepted")
	}
}

func TestBytesToBitsMSBFirst(t *testing.T) {
	bits := BytesToBits([]byte{0x80, 0x01})
	want := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(bits, want) {
		t.Errorf("got %v", bits)
	}
}

func TestCRC16KnownValue(t *testing.T) {
	// CRC-16/CCITT-FALSE ("123456789") = 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("CRC16 check value = 0x%04X, want 0x29B1", got)
	}
}

func TestCRCDetectsSingleBitErrorsProperty(t *testing.T) {
	f := func(data []byte, pos uint16) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 256 {
			data = data[:256]
		}
		orig := CRC16(data)
		mut := append([]byte(nil), data...)
		bit := int(pos) % (len(mut) * 8)
		mut[bit/8] ^= 1 << uint(bit%8)
		return CRC16(mut) != orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHammingRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		bits := BytesToBits(data)
		code, err := HammingEncode(bits)
		if err != nil {
			return false
		}
		got, n, err := HammingDecode(code)
		return err == nil && n == 0 && bytes.Equal(got, bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingCorrectsAnySingleError(t *testing.T) {
	bits := BytesToBits([]byte{0xA5, 0x3C})
	code, err := HammingEncode(bits)
	if err != nil {
		t.Fatal(err)
	}
	for pos := range code {
		corrupted := append([]byte(nil), code...)
		corrupted[pos] ^= 1
		got, n, err := HammingDecode(corrupted)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if n != 1 {
			t.Errorf("pos %d: corrected %d, want 1", pos, n)
		}
		if !bytes.Equal(got, bits) {
			t.Errorf("pos %d: data corrupted", pos)
		}
	}
}

func TestHammingOneErrorPerCodewordAcrossBlock(t *testing.T) {
	// One error in each 7-bit codeword of a longer message: all corrected.
	bits := BytesToBits([]byte{1, 2, 3, 4, 5, 6, 7})
	code, _ := HammingEncode(bits)
	rng := rand.New(rand.NewSource(4))
	for w := 0; w+7 <= len(code); w += 7 {
		code[w+rng.Intn(7)] ^= 1
	}
	got, n, err := HammingDecode(code)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(code)/7 {
		t.Errorf("corrected %d, want %d", n, len(code)/7)
	}
	if !bytes.Equal(got, bits) {
		t.Error("block not recovered")
	}
}

func TestHammingSizeErrors(t *testing.T) {
	if _, err := HammingEncode(make([]byte, 5)); err == nil {
		t.Error("non-multiple-of-4 accepted")
	}
	if _, _, err := HammingDecode(make([]byte, 8)); err == nil {
		t.Error("non-multiple-of-7 accepted")
	}
}

func TestInterleaveRoundTripProperty(t *testing.T) {
	f := func(data []byte, d uint8) bool {
		depth := int(d)%8 + 1
		n := len(data) / depth * depth
		bits := data[:n]
		il, err := Interleave(bits, depth)
		if err != nil {
			return false
		}
		back, err := Deinterleave(il, depth)
		return err == nil && bytes.Equal(back, bits)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaveSpreadsBursts(t *testing.T) {
	// A burst of `depth` consecutive chip errors must land in distinct
	// deinterleaved codewords.
	depth := 7
	n := 7 * 8
	bits := make([]byte, n)
	il, _ := Interleave(bits, depth)
	// Corrupt a burst in the interleaved (channel) domain.
	for i := 21; i < 21+depth; i++ {
		il[i] ^= 1
	}
	back, _ := Deinterleave(il, depth)
	// Count errors per 7-bit codeword.
	for w := 0; w+7 <= n; w += 7 {
		errs := 0
		for i := w; i < w+7; i++ {
			if back[i] != 0 {
				errs++
			}
		}
		if errs > 1 {
			t.Fatalf("codeword at %d has %d errors; burst not spread", w, errs)
		}
	}
}

func TestInterleaveErrors(t *testing.T) {
	if _, err := Interleave(make([]byte, 10), 3); err == nil {
		t.Error("non-divisible length accepted")
	}
	if _, err := Interleave(make([]byte, 10), 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := Deinterleave(make([]byte, 10), 3); err == nil {
		t.Error("deinterleave non-divisible accepted")
	}
	if _, err := Deinterleave(make([]byte, 10), 0); err == nil {
		t.Error("deinterleave zero depth accepted")
	}
}

func TestLineCodeRoundTripProperty(t *testing.T) {
	for _, code := range []LineCode{NRZ, Manchester, FM0} {
		code := code
		f := func(data []byte) bool {
			bits := BytesToBits(data)
			chips, err := code.Encode(bits)
			if err != nil {
				return false
			}
			if len(chips) != len(bits)*code.ChipsPerBit() {
				return false
			}
			back, err := code.Decode(chips)
			return err == nil && bytes.Equal(back, bits)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", code, err)
		}
	}
}

func TestManchesterBalanced(t *testing.T) {
	// Equal number of 0 and 1 chips regardless of data: no DC content.
	bits := BytesToBits([]byte{0x00, 0xFF, 0xAA})
	chips, _ := Manchester.Encode(bits)
	var ones int
	for _, c := range chips {
		ones += int(c)
	}
	if ones*2 != len(chips) {
		t.Errorf("%d ones out of %d chips; Manchester must be balanced", ones, len(chips))
	}
}

func TestFM0TransitionAtEveryBoundary(t *testing.T) {
	bits := []byte{1, 1, 0, 1, 0, 0, 1, 0}
	chips, _ := FM0.Encode(bits)
	// FM0 guarantees a level change across every bit boundary.
	for i := 2; i < len(chips); i += 2 {
		if chips[i] == chips[i-1] {
			t.Fatalf("no transition at boundary %d", i/2)
		}
	}
}

func TestLineCodeChipErrorsDontAbort(t *testing.T) {
	bits := BytesToBits([]byte{0x5A})
	for _, code := range []LineCode{Manchester, FM0} {
		chips, _ := code.Encode(bits)
		chips[3] ^= 1
		if _, err := code.Decode(chips); err != nil {
			t.Errorf("%v: chip error aborted decode: %v", code, err)
		}
	}
}

func TestLineCodeErrors(t *testing.T) {
	if _, err := Manchester.Decode(make([]byte, 3)); err == nil {
		t.Error("odd manchester chips accepted")
	}
	if _, err := FM0.Decode(make([]byte, 5)); err == nil {
		t.Error("odd fm0 chips accepted")
	}
	if _, err := NRZ.Encode([]byte{2}); err == nil {
		t.Error("non-binary bit accepted")
	}
	if _, err := NRZ.Decode([]byte{9}); err == nil {
		t.Error("non-binary chip accepted")
	}
	if _, err := LineCode(99).Encode([]byte{1}); err == nil {
		t.Error("unknown code encode accepted")
	}
	if _, err := LineCode(99).Decode([]byte{1}); err == nil {
		t.Error("unknown code decode accepted")
	}
}

func TestFrameMarshalUnmarshalRoundTrip(t *testing.T) {
	f := &Frame{Type: FrameData, Addr: 7, Seq: 42, Payload: []byte("hello ocean")}
	wire, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != f.WireSize() {
		t.Errorf("wire size %d, want %d", len(wire), f.WireSize())
	}
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || got.Addr != f.Addr || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(addr, seq byte, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		fr := &Frame{Type: FrameData, Addr: addr, Seq: seq, Payload: payload}
		wire, err := fr.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(wire)
		return err == nil && got.Addr == addr && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameErrors(t *testing.T) {
	big := &Frame{Type: FrameData, Payload: make([]byte, MaxPayload+1)}
	if _, err := big.Marshal(); err != ErrPayloadSize {
		t.Errorf("oversize payload: %v", err)
	}
	badType := &Frame{Type: 0x99}
	if _, err := badType.Marshal(); err != ErrBadType {
		t.Errorf("bad type: %v", err)
	}
	if _, err := Unmarshal([]byte{1, 2, 3}); err != ErrFrameTooShort {
		t.Error("short frame accepted")
	}
	good, _ := (&Frame{Type: FrameAck, Addr: 1}).Marshal()
	bad := append([]byte(nil), good...)
	bad[2] ^= 0x10
	if _, err := Unmarshal(bad); err != ErrBadCRC {
		t.Errorf("corrupted frame: %v", err)
	}
	// Inconsistent length field (with fixed-up CRC).
	f := &Frame{Type: FrameData, Payload: []byte{1, 2, 3}}
	wire, _ := f.Marshal()
	wire[3] = 2 // claim 2 bytes
	body := wire[:len(wire)-2]
	crc := CRC16(body)
	wire[len(wire)-2] = byte(crc >> 8)
	wire[len(wire)-1] = byte(crc)
	if _, err := Unmarshal(wire); err != ErrBadLength {
		t.Errorf("bad length: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	codecs := []Codec{
		{Code: NRZ},
		{Code: Manchester},
		{Code: FM0},
		{Code: FM0, FEC: true},
		DefaultCodec(),
	}
	f := &Frame{Type: FrameData, Addr: 3, Seq: 9, Payload: []byte{0xDE, 0xAD, 0xBE, 0xEF}}
	for _, c := range codecs {
		chips, err := c.EncodeFrame(f)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if len(chips) != c.ChipLength(len(f.Payload)) {
			t.Errorf("%+v: chip length %d, want %d", c, len(chips), c.ChipLength(len(f.Payload)))
		}
		got, stats, err := c.DecodeFrame(chips)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if stats.CorrectedBits != 0 {
			t.Errorf("%+v: clean channel corrected %d bits", c, stats.CorrectedBits)
		}
		if got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("%+v: frame mismatch", c)
		}
	}
}

func TestCodecCorrectsScatteredChipErrors(t *testing.T) {
	c := DefaultCodec()
	f := &Frame{Type: FrameData, Addr: 1, Seq: 5, Payload: []byte("sensors")}
	chips, err := c.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	// With FM0, flipping chip 2i+1 (second half of a bit) toggles exactly
	// that bit after decoding. Space the errors 29 bits apart: 29 is not a
	// multiple of the interleave depth, so every error deinterleaves into a
	// different Hamming codeword.
	for b := 0; 2*b+1 < len(chips); b += 29 {
		chips[2*b+1] ^= 1
	}
	got, stats, err := c.DecodeFrame(chips)
	if err != nil {
		t.Fatalf("decode failed: %v (corrected %d)", err, stats.CorrectedBits)
	}
	if stats.CorrectedBits == 0 {
		t.Error("expected corrections")
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Error("payload corrupted despite FEC")
	}
}

func TestCodecCorrectsBurst(t *testing.T) {
	// A 7-chip burst (one full interleaver column...) — with depth 7, a
	// burst of 7 consecutive *bits* spreads into 7 distinct codewords.
	// Working in the bit domain: corrupt 4 consecutive bits via their
	// second FM0 chips.
	c := Codec{Code: FM0, FEC: true, InterleaveDepth: 7}
	f := &Frame{Type: FrameData, Addr: 2, Seq: 1, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	chips, err := c.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	start := 40 // arbitrary bit offset
	for b := start; b < start+4; b++ {
		chips[2*b+1] ^= 1
	}
	got, stats, err := c.DecodeFrame(chips)
	if err != nil {
		t.Fatalf("burst not recovered: %v", err)
	}
	if stats.CorrectedBits < 4 {
		t.Errorf("corrected %d bits, want >= 4", stats.CorrectedBits)
	}
	if !bytes.Equal(got.Payload, f.Payload) {
		t.Error("payload corrupted")
	}
}

func TestCodecChipLengthMatchesDefault(t *testing.T) {
	c := DefaultCodec()
	// 4-byte header + 10 payload + 2 CRC = 16 bytes = 128 bits → FEC 224
	// bits → FM0 448 chips.
	if got := c.ChipLength(10); got != 448 {
		t.Errorf("ChipLength(10) = %d, want 448", got)
	}
}

func TestCodecRoundTripAllConfigsProperty(t *testing.T) {
	// Any valid codec configuration must round-trip any frame losslessly.
	f := func(codeRaw, depthRaw uint8, fec bool, addr, seq byte, payload []byte) bool {
		code := LineCode(int(codeRaw) % 3)
		depth := 1
		if fec {
			depth = []int{1, 2, 7, 14}[int(depthRaw)%4] // divide the 14n FEC bits
		}
		c := Codec{Code: code, FEC: fec, InterleaveDepth: depth}
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		if !fec && depth > 1 {
			return true // interleaver needs divisibility; skip invalid combos
		}
		fr := &Frame{Type: FrameData, Addr: addr, Seq: seq, Payload: payload}
		chips, err := c.EncodeFrame(fr)
		if err != nil {
			return false
		}
		got, _, err := c.DecodeFrame(chips)
		return err == nil && got.Addr == addr && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
