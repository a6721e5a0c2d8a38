package dsp

import "fmt"

// mseqTaps maps LFSR register length to a feedback tap mask that yields a
// maximal-length sequence under this package's Fibonacci LFSR convention
// (output taken from bit 0, feedback = parity(state & mask) shifted into bit
// degree-1). Each mask corresponds to a primitive polynomial over GF(2) and
// was verified to produce the full 2^degree - 1 period.
var mseqTaps = map[int]uint32{
	3:  0b11,
	4:  0b11,
	5:  0b101,
	6:  0b11,
	7:  0b11,
	8:  0b11101,
	9:  0b10001,
	10: 0b1001,
	11: 0b101,
	12: 0b1010011,
	13: 0b11011,
	14: 0b101011,
	15: 0b11,
}

// MSequence returns a maximal-length ±1 pseudo-noise sequence of period
// 2^degree - 1 for degrees 3 through 15. These sequences have a two-valued
// autocorrelation (N at zero lag, -1 elsewhere), which makes them ideal
// preambles for acquisition.
func MSequence(degree int) ([]float64, error) {
	taps, ok := mseqTaps[degree]
	if !ok {
		return nil, fmt.Errorf("dsp: no m-sequence polynomial for degree %d (supported 3..15)", degree)
	}
	n := (1 << degree) - 1
	out := make([]float64, n)
	state := uint32(1) // any nonzero seed
	for i := 0; i < n; i++ {
		bit := state & 1
		if bit == 1 {
			out[i] = 1
		} else {
			out[i] = -1
		}
		// Compute feedback as parity of tapped stages.
		fb := uint32(0)
		t := state & taps
		for t != 0 {
			fb ^= t & 1
			t >>= 1
		}
		state = (state >> 1) | (fb << (degree - 1))
	}
	return out, nil
}
