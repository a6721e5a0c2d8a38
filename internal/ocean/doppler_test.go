package ocean

import (
	"math"
	"math/rand"
	"testing"
)

// refFadingApply is FadingProcess.Apply as it was before the state moved
// into a local: one Gain step per sample through fp.state.
func refFadingApply(fp *FadingProcess, x []complex128) {
	gain := func() complex128 {
		if fp.sigma == 0 {
			return 1
		}
		fp.state = complex(fp.rho, 0)*fp.state +
			complex(fp.rng.NormFloat64()*fp.sigma, fp.rng.NormFloat64()*fp.sigma)
		return 1 + fp.state
	}
	for i := range x {
		x[i] *= gain()
	}
}

// TestFadingApplyMatchesReference pins Apply to refFadingApply bit for bit
// over a full 13,792-sample capture, twice in a row so the stored state
// carries over, for a fading and a static (σ = 0) process. The input holds
// signed zeros, which a static process must pass through as a multiply by
// exactly 1 does.
func TestFadingApplyMatchesReference(t *testing.T) {
	const n = 13792
	for _, spread := range []float64{3.7, 0} {
		got := NewFadingProcess(spread, 16000, 0.3, rand.New(rand.NewSource(4)))
		want := NewFadingProcess(spread, 16000, 0.3, rand.New(rand.NewSource(4)))
		src := rand.New(rand.NewSource(9))
		for pass := 0; pass < 2; pass++ {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(src.NormFloat64(), src.NormFloat64())
			}
			negZero := math.Copysign(0, -1)
			x[5], x[6] = complex(negZero, 1), complex(2, negZero)
			y := append([]complex128(nil), x...)
			got.Apply(x)
			refFadingApply(want, y)
			for i := range x {
				if math.Float64bits(real(x[i])) != math.Float64bits(real(y[i])) ||
					math.Float64bits(imag(x[i])) != math.Float64bits(imag(y[i])) {
					t.Fatalf("spread %v pass %d: sample %d is %v, reference %v", spread, pass, i, x[i], y[i])
				}
			}
		}
	}
}
