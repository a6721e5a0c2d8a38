package channel

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether two capture buffers are equal bit for bit,
// signed zeros included.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// TestCarrierTDLMatchesReference pins the carrier shortcut to the reference
// engine bit for bit: random tap sets with duplicate delays, delay spreads
// past the buffer's end, and no taps at all.
func TestCarrierTDLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		taps := make([]Tap, rng.Intn(10))
		spread := 1 + rng.Intn(2*n) // sometimes ≥ n
		for i := range taps {
			d := 40 + rng.Float64()*float64(spread)
			if i > 0 && rng.Intn(3) == 0 {
				d = taps[rng.Intn(i)].DelaySamples // duplicate delay
			}
			taps[i] = Tap{DelaySamples: d, Gain: complex(rng.NormFloat64(), rng.NormFloat64())}
		}
		amp := complex(rng.NormFloat64(), rng.NormFloat64())
		if trial%7 == 0 {
			amp = complex(math.Copysign(0, -1), 1) // a signed zero in the carrier
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = amp
		}
		want := make([]complex128, n)
		applyTDLInto(want, x, taps)
		got := make([]complex128, n)
		for i := range got {
			got[i] = complex(math.NaN(), 7) // stale contents must not leak through
		}
		if !carrierTDLInto(got, x, taps) {
			t.Fatalf("trial %d: constant input refused", trial)
		}
		if !sameBits(got, want) {
			t.Fatalf("trial %d (n=%d, %d taps): carrier path differs from applyTDLInto", trial, n, len(taps))
		}
	}
}

// TestCarrierTDLFallsBack checks that an input differing from the carrier
// in one sample — by value or only by the sign of a zero — is refused
// untouched, so DownlinkInto takes the reference engine.
func TestCarrierTDLFallsBack(t *testing.T) {
	taps := []Tap{{DelaySamples: 10, Gain: 1}, {DelaySamples: 13, Gain: 0.5i}}
	for _, odd := range []complex128{2, complex(math.Copysign(0, -1), 0)} {
		x := make([]complex128, 64)
		x[37] = odd
		dst := make([]complex128, len(x))
		dst[0] = 9
		if carrierTDLInto(dst, x, taps) {
			t.Fatalf("input with x[37]=%v taken as a carrier", odd)
		}
		if dst[0] != 9 {
			t.Fatal("refused input still wrote dst")
		}
	}
	if carrierTDLInto(make([]complex128, 3), make([]complex128, 4), taps) {
		t.Fatal("length mismatch taken as a carrier")
	}
}

// TestDownlinkCarrierMatchesReference runs both inputs through a real
// link: the carrier goes through the shortcut, a modulated envelope through
// the reference engine, and each equals applyTDLInto on the link's taps.
func TestDownlinkCarrierMatchesReference(t *testing.T) {
	l, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, modulated := range []bool{false, true} {
		tx := make([]complex128, 4096)
		for i := range tx {
			tx[i] = 3.5
		}
		if modulated {
			tx[2000] = 0
		}
		want := make([]complex128, len(tx))
		applyTDLInto(want, tx, l.down)
		got := l.DownlinkInto(make([]complex128, len(tx)), tx)
		if !sameBits(got, want) {
			t.Fatalf("modulated=%v: downlink differs from applyTDLInto", modulated)
		}
	}
}
