package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestXCorrDirectVsFFT(t *testing.T) {
	// The implementation switches to FFT above 64 reference samples; both
	// paths must agree with the brute-force definition.
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{8, 64, 65, 200} {
		x := randComplex(rng, 400)
		ref := randComplex(rng, m)
		got := make([]complex128, len(x)-m+1)
		XCorrInto(got, x, ref)
		for k := 0; k < len(got); k += 37 { // spot-check
			var want complex128
			for n := 0; n < m; n++ {
				want += x[k+n] * cmplx.Conj(ref[n])
			}
			if !approxEqC(got[k], want, 1e-6) {
				t.Errorf("m=%d k=%d: got %v want %v", m, k, got[k], want)
			}
		}
	}
}

// TestXCorrDegenerate: with no alignment where ref fits (empty ref, or ref
// longer than x) XCorrInto has nothing to write and accepts any dst.
func TestXCorrDegenerate(t *testing.T) {
	XCorrInto(nil, nil, []complex128{1})
	XCorrInto(nil, []complex128{1, 2}, nil)
	XCorrInto(nil, []complex128{1}, []complex128{1, 2})
}

func TestNormXCorrPeakAtEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := randComplex(rng, 63)
	x := make([]complex128, 300)
	GaussianNoise(x, 0.01, rng)
	// Embed a scaled, rotated copy of ref at offset 100.
	g := complex(3, 1)
	for i, r := range ref {
		x[100+i] += g * r
	}
	nc := normXCorr(x, ref)
	idx := ArgMax(nc)
	peak := nc[idx]
	if idx != 100 {
		t.Fatalf("peak at %d, want 100", idx)
	}
	if peak < 0.95 {
		t.Errorf("peak %v, want near 1 (gain-invariant)", peak)
	}
	// Away from the embedding, correlation should be low.
	for k := 0; k < 40; k++ {
		if nc[k] > 0.5 {
			t.Errorf("spurious correlation %v at %d", nc[k], k)
		}
	}
}

func TestNormXCorrBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randComplex(rng, 256)
	ref := randComplex(rng, 32)
	for i, v := range normXCorr(x, ref) {
		if v < 0 || v > 1+1e-9 {
			t.Errorf("norm xcorr[%d] = %v outside [0,1]", i, v)
		}
	}
}

func TestNormXCorrZeroRef(t *testing.T) {
	x := randComplex(rand.New(rand.NewSource(1)), 16)
	out := normXCorr(x, make([]complex128, 4))
	for _, v := range out {
		if v != 0 {
			t.Error("zero reference should yield zero correlation")
		}
	}
}

func TestArgMaxAbs(t *testing.T) {
	x := []complex128{1, complex(0, -5), 2}
	mags := make([]float64, len(x))
	for i, v := range x {
		mags[i] = cmplx.Abs(v)
	}
	idx := ArgMax(mags)
	if idx != 1 || !approxEq(mags[idx], 5, 1e-12) {
		t.Errorf("ArgMax of magnitudes = %d (%v)", idx, mags[idx])
	}
}

// TestCorrelatorMatchesOneShot pins the cached-reference correlator against
// the package-level functions bit-exactly, on both the direct (short ref)
// and FFT (long ref) paths, including a capture-length change that forces a
// spectrum recompute.
func TestCorrelatorMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range []int{16, 200} {
		ref := make([]complex128, m)
		for i := range ref {
			ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		c := NewCorrelator(ref)
		for _, n := range []int{m + 50, 1000, 777} {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := make([]complex128, n-m+1)
			XCorrInto(want, x, ref)
			got := make([]complex128, len(want))
			c.XCorrInto(got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("m=%d n=%d: XCorr mismatch at %d: %v != %v", m, n, i, got[i], want[i])
				}
			}
			wantN := normXCorr(x, ref)
			gotN := make([]float64, len(wantN))
			c.NormXCorrInto(gotN, x)
			for i := range wantN {
				if gotN[i] != wantN[i] {
					t.Fatalf("m=%d n=%d: NormXCorr mismatch at %d: %v != %v", m, n, i, gotN[i], wantN[i])
				}
			}
		}
		// Steady state (fixed capture length): no allocations. The scratch
		// comes from a sync.Pool, which deliberately discards items under
		// the race detector, so the pin only holds in a normal build.
		if raceEnabled {
			continue
		}
		x := make([]complex128, 1000)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		dst := make([]float64, len(x)-m+1)
		c.NormXCorrInto(dst, x)
		if a := testing.AllocsPerRun(10, func() { c.NormXCorrInto(dst, x) }); a != 0 {
			t.Errorf("m=%d: Correlator NormXCorrInto allocates %.1f per run in steady state", m, a)
		}
	}
}

// TestNormXCorrAtMatchesSurface checks the single-lag form against the
// full normalized surface, on both of NormXCorrInto's paths and on a
// window of zeros.
func TestNormXCorrAtMatchesSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range []int{16, 200} {
		ref := make([]complex128, m)
		for i := range ref {
			ref[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		c := NewCorrelator(ref)
		x := make([]complex128, 3*m+40)
		for i := m; i < len(x); i++ {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := make([]float64, len(x)-m+1)
		c.NormXCorrInto(want, x)
		for k, w := range want {
			if got := c.NormXCorrAt(x, k); math.Abs(got-w) > 1e-12 {
				t.Fatalf("m=%d lag %d: %v, surface has %v", m, k, got, w)
			}
		}
	}
}

// normXCorr is the allocating form of NormXCorrInto.
func normXCorr(x, ref []complex128) []float64 {
	out := make([]float64, len(x)-len(ref)+1)
	NormXCorrInto(out, x, ref)
	return out
}
