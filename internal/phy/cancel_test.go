package phy

import (
	"math"
	"math/rand"
	"testing"
)

// refCancel is AdaptiveCanceller.Process as it was before the weight moved
// into a local: every sample reads and writes c.w through the pointer.
func refCancel(c *AdaptiveCanceller, y, x []complex128) {
	for i := range y {
		xi := x[i]
		e := y[i] - c.w*xi
		y[i] = e
		p := real(xi)*real(xi) + imag(xi)*imag(xi)
		if p > 0 {
			c.w += complex(c.mu/p, 0) * e * complex(real(xi), -imag(xi))
		}
	}
}

// TestCancellerProcessMatchesReference pins Process to refCancel bit for
// bit over a full 13,792-sample capture, primed and cold, with silent
// reference samples (the |x|² = 0 branch) mixed in, run twice in a row so
// the stored weight carries over.
func TestCancellerProcessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 13792
	for _, prime := range []bool{false, true} {
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			if rng.Intn(50) != 0 {
				x[i] = complex(3+0.2*rng.NormFloat64(), 0.1*rng.NormFloat64())
			}
			y[i] = complex(0.03, -0.02)*x[i] + complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, want := NewAdaptiveCanceller(0.05), NewAdaptiveCanceller(0.05)
		if prime {
			got.Prime(y, x)
			want.Prime(y, x)
		}
		yg, yw := append([]complex128(nil), y...), append([]complex128(nil), y...)
		for pass := 0; pass < 2; pass++ {
			got.Process(yg, x)
			refCancel(want, yw, x)
			for i := range yg {
				if math.Float64bits(real(yg[i])) != math.Float64bits(real(yw[i])) ||
					math.Float64bits(imag(yg[i])) != math.Float64bits(imag(yw[i])) {
					t.Fatalf("prime=%v pass %d: sample %d is %v, reference %v", prime, pass, i, yg[i], yw[i])
				}
			}
			if g, w := got.Weight(), want.w; math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("prime=%v pass %d: weight %v, reference %v", prime, pass, g, w)
			}
		}
	}
}
