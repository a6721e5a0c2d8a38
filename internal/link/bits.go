// Package link implements VAB's link layer: bit/byte packing, CRC error
// detection, Hamming(7,4) forward error correction with interleaving, line
// coding, and the frame format carried over the backscatter uplink and the
// reader downlink.
//
// Everything operates on explicit bit slices ([]byte with one bit per
// element, values 0 or 1) between the byte-oriented framing above and the
// symbol-oriented PHY below: at the backscatter node this code has to run in
// a few microwatts, so the formats are deliberately simple and all encoders
// and decoders are table-free, constant-space streaming transforms.
package link

import "fmt"

// BytesToBits unpacks bytes MSB-first into a bit slice (one bit per byte,
// values 0/1).
func BytesToBits(data []byte) []byte {
	bits := make([]byte, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>uint(i))&1)
		}
	}
	return bits
}

// BitsToBytes packs bits MSB-first into bytes. The bit count must be a
// multiple of 8.
func BitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("link: bit count %d not a multiple of 8", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("link: bit %d has non-binary value %d", i, b)
		}
		out[i/8] |= b << uint(7-i%8)
	}
	return out, nil
}
