package phy

import (
	"math"
	"testing"

	"vab/internal/dsp"
)

// echoCapture is a clean burst plus one late arrival echoDelay samples
// after it at relative amplitude echoGain, already notch-suppressed.
func echoCapture(t *testing.T, d *Demodulator, delay, echoDelay int, echoGain float64) []complex128 {
	t.Helper()
	m, err := NewModulator(d.p)
	if err != nil {
		t.Fatal(err)
	}
	chips := make([]byte, 48)
	for i := range chips {
		chips[i] = byte(i * 7 % 3 % 2)
	}
	y := loopback(t, m, chips, delay, complex(0.3, 0.4), 1e-4, 21)
	echo := loopback(t, m, chips, delay+echoDelay, complex(0.3*echoGain, -0.4*echoGain), 0, 0)
	for i := range y {
		y[i] += echo[i]
	}
	return d.Suppress(y)
}

// TestAcquireAllocatesNothing pins the steady-state acquisition, secondary
// peaks included, at zero allocations.
func TestAcquireAllocatesNothing(t *testing.T) {
	d, err := NewDemodulator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	y := echoCapture(t, d, 611, 40, 0.9)
	acq, err := d.Acquire(y, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(acq.Peaks) == 0 {
		t.Fatal("capture has no secondary peak; the pin would not cover the peak list")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := d.Acquire(y, 0.25); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Acquire allocates %v times per call, want 0", allocs)
	}
}

// TestLocateMatchesFullSearch checks the coarse-to-fine search against an
// exhaustive full-rate one on bursts at every alignment modulo the coarse
// factor, alone and with a late echo 45 samples behind. Up to an echo of
// exactUpTo relative amplitude both pick the same start and metric. A
// stronger echo can win the coarse stage for some alignments; the located
// arrival must then still reach 75% of the full search's peak (measured:
// 78% at the default numerology's 0.7 echo, 89% or more at 0.9). The
// default numerology puts its 1 kHz tone at the coarse Nyquist limit (see
// coarseFactor); the lower-tone one keeps both tones inside it.
func TestLocateMatchesFullSearch(t *testing.T) {
	low := DefaultParams()
	low.ChipRate, low.F0, low.F1 = 250, 250, 500
	for _, tc := range []struct {
		p         Params
		exactUpTo float64
	}{{DefaultParams(), 0.5}, {low, 0.7}} {
		d, err := NewDemodulator(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		misses := 0
		for delay := 600; delay < 600+2*d.decim; delay++ {
			for _, echo := range []float64{0, 0.3, 0.5, 0.7, 0.9} {
				y := echoCapture(t, d, delay, 45, echo)
				full := make([]float64, len(y)-len(d.preamble)+1)
				d.corr.NormXCorrInto(full, y)
				want := dsp.ArgMax(full)
				peak := full[want]
				acq, err := d.Locate(y)
				if err != nil {
					t.Fatal(err)
				}
				if acq.Start == want && math.Abs(acq.Metric-peak) <= 1e-12 {
					continue
				}
				misses++
				if echo <= tc.exactUpTo || acq.Metric < 0.75*peak {
					t.Errorf("tones %v/%v Hz, delay %d, echo %v: located %d (metric %.3f), full search %d (%.3f)",
						tc.p.F0, tc.p.F1, delay, echo, acq.Start, acq.Metric, want, peak)
				}
			}
		}
		t.Logf("tones %v/%v Hz, factor %d: %d of %d strong-echo captures located on the echo",
			tc.p.F0, tc.p.F1, d.decim, misses, 2*2*d.decim)
	}
}

// TestCoarseFactorKeepsTonesInBand pins the rule that picks the coarse
// factor: neither subcarrier above the decimated Nyquist limit.
func TestCoarseFactorKeepsTonesInBand(t *testing.T) {
	for _, tc := range []struct {
		f0, f1 float64
		want   int
	}{
		{500, 1000, 8},  // default: 1 kHz is the Nyquist limit at 8
		{250, 500, 8},   // well inside at 8
		{-1500, 500, 4}, // negative tones count by magnitude
		{3000, 1000, 2}, // 4 kHz Nyquist at 2
		{500, 5000, 1},  // no factor keeps 5 kHz in band
	} {
		p := DefaultParams()
		p.F0, p.F1 = tc.f0, tc.f1
		if got := coarseFactor(p); got != tc.want {
			t.Errorf("tones %v/%v Hz: factor %d, want %d", tc.f0, tc.f1, got, tc.want)
		}
	}
}
