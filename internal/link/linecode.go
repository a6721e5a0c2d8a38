package link

import "fmt"

// LineCode is a bit-to-chip transformation applied before modulation.
// Backscatter links favour codes with no DC content: at the reader, energy
// near the carrier is buried under self-interference, so balanced codes
// (Manchester, FM0) keep the data away from the leakage the canceller
// can't fully remove.
type LineCode int

// Supported line codes.
const (
	// NRZ maps each bit to one chip unchanged (no protection, baseline).
	NRZ LineCode = iota
	// Manchester maps 0→01 and 1→10: guaranteed transition density, 2×
	// chip rate.
	Manchester
	// FM0 inverts phase at every bit boundary and adds a mid-bit
	// transition for 0: the classic backscatter code (EPC Gen2 uses it),
	// decodable with a single flip-flop at the node.
	FM0
)

// ChipsPerBit returns the chip expansion factor of the code.
func (c LineCode) ChipsPerBit() int {
	if c == NRZ {
		return 1
	}
	return 2
}

// Encode transforms bits into chips (values 0/1).
func (c LineCode) Encode(bits []byte) ([]byte, error) {
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("link: bit %d has non-binary value %d", i, b)
		}
	}
	switch c {
	case NRZ:
		out := make([]byte, len(bits))
		copy(out, bits)
		return out, nil
	case Manchester:
		out := make([]byte, 0, len(bits)*2)
		for _, b := range bits {
			if b == 0 {
				out = append(out, 0, 1)
			} else {
				out = append(out, 1, 0)
			}
		}
		return out, nil
	case FM0:
		out := make([]byte, 0, len(bits)*2)
		level := byte(1)
		for _, b := range bits {
			level ^= 1 // invert at every bit boundary
			first := level
			second := level
			if b == 0 {
				second = level ^ 1 // mid-bit transition for 0
				level = second
			}
			out = append(out, first, second)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("link: unknown line code %d", c)
	}
}

// Decode inverts Encode. Chip slices must have even length for the 2× codes.
// Single chip errors map to single bit errors (never abort), so FEC above
// this layer gets its chance to correct them.
func (c LineCode) Decode(chips []byte) ([]byte, error) {
	for i, b := range chips {
		if b > 1 {
			return nil, fmt.Errorf("link: chip %d has non-binary value %d", i, b)
		}
	}
	switch c {
	case NRZ:
		out := make([]byte, len(chips))
		copy(out, chips)
		return out, nil
	case Manchester:
		if len(chips)%2 != 0 {
			return nil, fmt.Errorf("link: manchester needs even chips, got %d", len(chips))
		}
		out := make([]byte, 0, len(chips)/2)
		for i := 0; i < len(chips); i += 2 {
			// Valid pairs are 01→0 and 10→1; a coding violation (00/11,
			// caused by a chip error) resolves deterministically to the
			// first chip so downstream FEC can correct it.
			out = append(out, chips[i])
		}
		return out, nil
	case FM0:
		if len(chips)%2 != 0 {
			return nil, fmt.Errorf("link: fm0 needs even chips, got %d", len(chips))
		}
		out := make([]byte, 0, len(chips)/2)
		for i := 0; i < len(chips); i += 2 {
			if chips[i] == chips[i+1] {
				out = append(out, 1) // no mid-bit transition
			} else {
				out = append(out, 0)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("link: unknown line code %d", c)
	}
}
