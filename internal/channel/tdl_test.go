package channel

import (
	"math"
	"math/rand"
	"testing"

	"vab/internal/dsp"
)

// refApplyTDL is the time engine as it was before output tiling: zero dst,
// then one dsp.MixInto pass per tap over the whole buffer, in tap order,
// delays rounded to whole samples relative to the earliest tap. The tiled
// engine must match it bit for bit.
func refApplyTDL(dst, x []complex128, taps []Tap) {
	for i := range dst {
		dst[i] = 0
	}
	if len(taps) == 0 {
		return
	}
	base := math.Inf(1)
	for _, t := range taps {
		if t.DelaySamples < base {
			base = t.DelaySamples
		}
	}
	for _, t := range taps {
		off := int(math.Round(t.DelaySamples - base))
		dsp.MixInto(dst, x, off, t.Gain)
	}
}

// TestTDLTimeMatchesReference pins the tiled time engine to refApplyTDL
// bit for bit: lengths around the tile size, delay spreads past the end of
// the buffer, duplicate delays, no taps, and 64 and 100 taps.
func TestTDLTimeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	lengths := []int{0, 1, tdlTile - 1, tdlTile, tdlTile + 1, 3*tdlTile + 7, 13792}
	for _, n := range lengths {
		for _, nTaps := range []int{0, 1, 2, 7, 64, 100} {
			for _, spread := range []int{3, n / 2, 2*n + 5} {
				taps := make([]Tap, nTaps)
				for i := range taps {
					d := 30 + rng.Float64()*float64(spread)
					if i > 0 && rng.Intn(4) == 0 {
						d = taps[rng.Intn(i)].DelaySamples
					}
					taps[i] = Tap{DelaySamples: d, Gain: complex(rng.NormFloat64(), rng.NormFloat64())}
				}
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				if n > 0 {
					x[0] = complex(math.Copysign(0, -1), 0) // a signed zero in the input
				}
				want := make([]complex128, n)
				refApplyTDL(want, x, taps)
				got := make([]complex128, n)
				for i := range got {
					got[i] = complex(math.NaN(), 7) // stale contents must not leak through
				}
				tdl := NewTDL(nil, false)
				tdl.Rebuild(taps)
				tdl.Apply(got, x)
				if !sameBits(got, want) {
					t.Fatalf("n=%d, %d taps, spread %d: tiled engine differs from the reference", n, nTaps, spread)
				}
			}
		}
	}
}
