package phy

import (
	"math"
	"math/rand"
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

// TestAcquireAllocatesNothing pins the steady-state acquisition of a
// burst with a strong late echo at zero allocations, and checks it locks
// onto the direct arrival.
func TestAcquireAllocatesNothing(t *testing.T) {
	d, err := NewDemodulator(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	const start = 611
	y := echoCapture(t, d, start, 40, 0.9)
	acq, err := d.Acquire(y, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if acq.Start < start-1 || acq.Start > start+1 {
		t.Fatalf("acquired at %d, want the direct arrival at %d±1", acq.Start, start)
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

// TestLoopbackKnownAnswer passes a channel-free, noiseless burst of 400
// random chips through Suppress, Locate and DemodChips at each chip rate
// the rate controllers command. The answer is known: the burst starts at
// sample 512, every chip decodes, and the tone SNR estimate, which with no
// noise measures only the receiver's own leakage between the tones, clears
// a floor. The floors sit below the measured 125, 519 and 2,120 at 500,
// 250 and 125 cps, and fail a receiver that mixes the preamble's own
// correlation ripple into its decisions as extra multipath branches
// (such a receiver reads 18.9 and 8.4 at 250 and 125 cps).
func TestLoopbackKnownAnswer(t *testing.T) {
	const start = 512
	for _, tc := range []struct {
		rate, snrFloor float64
	}{{500, 100}, {250, 400}, {125, 1600}} {
		p := DefaultParams()
		p.ChipRate = tc.rate
		m, err := NewModulator(p)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDemodulator(p)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(tc.rate)))
		chips := make([]byte, 400)
		for i := range chips {
			chips[i] = byte(rng.Intn(2))
		}
		y := d.Suppress(loopback(t, m, chips, start, 1, 0, 0))
		acq, err := d.Locate(y)
		if err != nil {
			t.Fatal(err)
		}
		if acq.Start < start-1 || acq.Start > start+1 {
			t.Errorf("%v cps: located at %d, want %d±1", tc.rate, acq.Start, start)
		}
		soft, err := d.DemodChips(y, acq, len(chips))
		if err != nil {
			t.Fatal(err)
		}
		if n := CountChipErrors(HardChips(soft), chips); n != 0 {
			t.Errorf("%v cps: %d chip errors with no channel and no noise", tc.rate, n)
		}
		if snr := EstimateSNR(soft); snr < tc.snrFloor {
			t.Errorf("%v cps: SNR estimate %.1f, want at least %v", tc.rate, snr, tc.snrFloor)
		} else {
			t.Logf("%v cps: start %d, SNR estimate %.1f", tc.rate, acq.Start, snr)
		}
	}
}
