package dsp

import (
	"math/rand"
	"testing"
)

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestRFFTIntoMatchesRFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Even fast path, the odd/small Bluestein fallback, and power-of-two.
	for _, n := range []int{1, 2, 3, 4, 7, 100, 255, 256, 1024} {
		x := randReal(rng, n)
		xc := make([]complex128, n)
		for i, v := range x {
			xc[i] = complex(v, 0)
		}
		want := fft(xc)
		dst := make([]complex128, n)
		for i := range dst {
			dst[i] = complex(42, 42) // stale garbage must be overwritten
		}
		RFFTInto(dst, x)
		for i := range dst {
			if !approxEqC(dst[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d bin %d: RFFTInto %v, FFTInto %v", n, i, dst[i], want[i])
			}
		}
	}
}

func TestRFFTIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("short dst accepted")
		}
	}()
	RFFTInto(make([]complex128, 3), make([]float64, 4))
}

func TestConvolveIntoMatchesConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range [][2]int{{1, 1}, {4, 4}, {64, 16}, {100, 33}, {1024, 64}} {
		a := randComplex(rng, tc[0])
		b := randComplex(rng, tc[1])
		want := directConv(a, b)
		dst := make([]complex128, len(a)+len(b)-1)
		ConvolveInto(dst, a, b)
		for i := range dst {
			if !approxEqC(dst[i], want[i], 1e-8*float64(len(dst))) {
				t.Fatalf("%dx%d tap %d: ConvolveInto %v, direct %v", tc[0], tc[1], i, dst[i], want[i])
			}
		}
	}
}

// TestConvolveIntoAliasing pins the documented contract that dst may share
// backing with an input: the hot callers convolve into a buffer whose
// prefix holds the signal being convolved.
func TestConvolveIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randComplex(rng, 64)
	b := randComplex(rng, 16)
	want := convolve(a, b)
	buf := make([]complex128, len(a)+len(b)-1)
	copy(buf, a)
	ConvolveInto(buf, buf[:len(a)], b)
	for i := range buf {
		if !approxEqC(buf[i], want[i], 1e-7) {
			t.Fatalf("aliased tap %d: %v, want %v", i, buf[i], want[i])
		}
	}
}

func TestConvolveIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("wrong dst length accepted")
		}
	}()
	ConvolveInto(make([]complex128, 10), make([]complex128, 8), make([]complex128, 4))
}

// The Into forms are the hot-path variants: once the plan cache is warm
// they must not allocate. These pins are what lets RunRound's callers
// keep their zero-alloc steady state. Their scratch comes from a
// sync.Pool, which deliberately discards items under the race detector,
// so the pins only hold in a normal build.
func TestRFFTIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, n := range []int{255, 1024} { // Bluestein fallback and even fast path
		x := randReal(rand.New(rand.NewSource(3)), n)
		dst := make([]complex128, n)
		RFFTInto(dst, x) // warm the plan cache
		if a := testing.AllocsPerRun(20, func() { RFFTInto(dst, x) }); a != 0 {
			t.Errorf("RFFTInto n=%d: %.0f allocs/op in steady state, want 0", n, a)
		}
	}
}

func TestConvolveIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	a := randComplex(rng, 1024)
	b := randComplex(rng, 64)
	dst := make([]complex128, len(a)+len(b)-1)
	ConvolveInto(dst, a, b) // warm the plan cache
	if n := testing.AllocsPerRun(20, func() { ConvolveInto(dst, a, b) }); n != 0 {
		t.Errorf("ConvolveInto 1024x64: %.0f allocs/op in steady state, want 0", n)
	}
}
