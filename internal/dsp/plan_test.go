package dsp

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"vab/internal/telemetry"
)

// directDFT is the O(n²) reference all transforms are checked against.
func directDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for i := 0; i < n; i++ {
			acc += x[i] * cmplx.Rect(1, -Tau*float64(k)*float64(i)/float64(n))
		}
		out[k] = acc
	}
	return out
}

func TestFFTIntoMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 3, 7, 100, 999} {
		x := randComplex(rng, n)
		want := directDFT(x)
		dst := make([]complex128, n)
		FFTInto(dst, x)
		for i := range want {
			if !approxEqC(dst[i], want[i], 1e-9*float64(n)) {
				t.Errorf("n=%d: FFTInto[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
		// In-place aliasing (dst == src).
		inpl := make([]complex128, n)
		copy(inpl, x)
		FFTInto(inpl, inpl)
		for i := range want {
			if !approxEqC(inpl[i], dst[i], 1e-9) {
				t.Errorf("n=%d: in-place FFTInto[%d] = %v, want %v", n, i, inpl[i], want[i])
			}
		}
		// Inverse round trip through the Into pair.
		back := make([]complex128, n)
		IFFTInto(back, dst)
		for i := range x {
			if !approxEqC(back[i], x[i], 1e-8) {
				t.Errorf("n=%d: IFFTInto round trip[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	FFTInto(make([]complex128, 4), make([]complex128, 8))
}

// TestPlanCacheConcurrent hammers the plan cache from many goroutines
// across a size mix that exercises both the radix-2 and Bluestein paths
// (including first-touch plan construction races) and verifies every
// result against a precomputed reference. Run under -race this is the
// plan-cache safety proof the parallel Monte-Carlo harness relies on.
func TestPlanCacheConcurrent(t *testing.T) {
	sizes := []int{4, 16, 64, 256, 1024, 3, 37, 300, 1000}
	inputs := make(map[int][]complex128, len(sizes))
	want := make(map[int][]complex128, len(sizes))
	rng := rand.New(rand.NewSource(23))
	for _, n := range sizes {
		x := randComplex(rng, n)
		inputs[n] = x
		want[n] = directDFT(x)
	}

	const goroutines = 16
	const iters = 50
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]complex128, 1024)
			for it := 0; it < iters; it++ {
				n := sizes[(g+it)%len(sizes)]
				x := inputs[n]
				var got []complex128
				if it%2 == 0 {
					got = fft(x)
				} else {
					FFTInto(dst[:n], x)
					got = dst[:n]
				}
				for i := range got {
					if !approxEqC(got[i], want[n][i], 1e-6*float64(n)) {
						select {
						case errc <- fmt.Errorf("goroutine %d n=%d bin %d: got %v want %v", g, n, i, got[i], want[n][i]):
						default:
						}
						return
					}
				}
				// Interleave convolutions so the scratch pool is contended too.
				if it%5 == 0 {
					a := inputs[16]
					c := convolve(a, a)
					if !approxEqC(c[0], a[0]*a[0], 1e-9) {
						select {
						case errc <- fmt.Errorf("goroutine %d: convolve[0] = %v, want %v", g, c[0], a[0]*a[0]):
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestPlanCacheCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	Instrument(reg)
	defer func() {
		metFFTTime, metXCorrTime = nil, nil
		metPlanHits, metPlanMisses = nil, nil
	}()
	// An odd prime far above anything the suite uses: guaranteed cold, and
	// its Bluestein pad may or may not be cached — only the arbitrary-size
	// plan itself is asserted on.
	const n = 7993
	x := randComplex(rand.New(rand.NewSource(5)), n)
	fft(x)
	miss0 := metPlanMisses.Value()
	if miss0 == 0 {
		t.Fatal("first transform of a new size did not record a plan miss")
	}
	hit0 := metPlanHits.Value()
	fft(x)
	if metPlanMisses.Value() != miss0 {
		t.Error("second transform of the same size rebuilt a plan")
	}
	if metPlanHits.Value() <= hit0 {
		t.Error("second transform did not record a plan hit")
	}
}

// TestRFFTMatchesComplexFFT pins the half-size packing trick to the full
// complex transform across even (packed), odd (fallback) and power-of-two
// (cached-twiddle) lengths.
func TestRFFTMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 4, 8, 64, 1024, 100, 250, 99, 1000} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := make([]complex128, n)
		RFFTInto(got, x)
		xc := make([]complex128, n)
		for i, v := range x {
			xc[i] = complex(v, 0)
		}
		want := directDFT(xc)
		for k := range want {
			if !approxEqC(got[k], want[k], 1e-9*float64(n+1)) {
				t.Errorf("n=%d: RFFT[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestConvolveScratchReuse(t *testing.T) {
	// Back-to-back convolutions of different sizes must not see each
	// other's scratch contents (the pool hands buffers back dirty).
	rng := rand.New(rand.NewSource(41))
	a1, b1 := randComplex(rng, 40), randComplex(rng, 17)
	a2, b2 := randComplex(rng, 9), randComplex(rng, 5)
	w1, w2 := convolve(a1, b1), convolve(a2, b2)
	for i := 0; i < 20; i++ {
		g1, g2 := convolve(a1, b1), convolve(a2, b2)
		for k := range w1 {
			if g1[k] != w1[k] {
				t.Fatalf("iteration %d: convolution drifted at %d", i, k)
			}
		}
		for k := range w2 {
			if g2[k] != w2[k] {
				t.Fatalf("iteration %d: small convolution drifted at %d", i, k)
			}
		}
	}
}
