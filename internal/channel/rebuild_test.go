package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// fullCfg is testCfg with every stochastic subsystem on: noise (colored),
// fading, leakage — the configuration where RNG-stream equivalence between
// Rebuild and a fresh New actually matters.
func fullCfg() Config {
	cfg := testCfg()
	cfg.DisableNoise = false
	cfg.DisableFading = false
	cfg.ColoredNoise = true
	cfg.SelfInterferenceDB = -30
	return cfg
}

// TestRebuildMatchesFreshLink pins the Rebuild contract: across 100 swayed
// rounds, a link rebuilt in place must produce bit-identical taps and
// bit-identical round-trip waveforms (same RNG stream: noise, fading) to a
// link constructed from scratch for the same geometry and seed.
func TestRebuildMatchesFreshLink(t *testing.T) {
	cfg := fullCfg()
	reused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sway := rand.New(rand.NewSource(42))
	tx := make([]complex128, 600)
	gamma := make([]complex128, 600)
	for i := range tx {
		tx[i] = complex(1e8, 0)
		gamma[i] = complex(0.3*float64(i%2), 0)
	}
	dst := make([]complex128, len(tx))
	for round := 0; round < 100; round++ {
		g := Geometry{
			ReaderDepth: cfg.ReaderDepth + sway.NormFloat64()*0.05,
			NodeDepth:   cfg.NodeDepth + sway.NormFloat64()*0.05,
			Range:       cfg.Range + sway.NormFloat64()*0.05,
		}
		seed := cfg.Seed + int64(round) + 1
		if err := reused.Rebuild(g, seed); err != nil {
			t.Fatal(err)
		}
		fcfg := cfg
		fcfg.ReaderDepth, fcfg.NodeDepth, fcfg.Range = g.ReaderDepth, g.NodeDepth, g.Range
		fcfg.Seed = seed
		fresh, err := New(fcfg)
		if err != nil {
			t.Fatal(err)
		}

		rd, fd := reused.down, fresh.down
		if len(rd) != len(fd) {
			t.Fatalf("round %d: tap count %d != fresh %d", round, len(rd), len(fd))
		}
		for i := range rd {
			if rd[i] != fd[i] {
				t.Fatalf("round %d tap %d: rebuilt %+v != fresh %+v", round, i, rd[i], fd[i])
			}
		}

		got, err := reused.RoundTripInto(dst, tx, gamma, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RoundTrip(tx, gamma, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d sample %d: rebuilt %v != fresh %v (RNG streams diverged)",
					round, i, got[i], want[i])
			}
		}
	}
}

func TestRebuildRejectsBadGeometry(t *testing.T) {
	l, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	bad := []Geometry{
		{ReaderDepth: 2, NodeDepth: 2.5, Range: 0},
		{ReaderDepth: 0, NodeDepth: 2.5, Range: 50},
		{ReaderDepth: 2, NodeDepth: 100, Range: 50},
	}
	for i, g := range bad {
		if err := l.Rebuild(g, 7); err == nil {
			t.Errorf("geometry %d not rejected", i)
		}
	}
	// The link must remain usable after a rejected rebuild.
	if _, err := l.RoundTrip(make([]complex128, 64), make([]complex128, 64), 1); err != nil {
		t.Fatalf("link unusable after rejected rebuild: %v", err)
	}
}

// TestIntoVariantsMatchAllocating verifies the *Into entry points compute
// exactly what their allocating counterparts do.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	mk := func() *Link {
		l, err := New(fullCfg())
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	tx := make([]complex128, 512)
	gamma := make([]complex128, 512)
	for i := range tx {
		tx[i] = complex(1e8, 0)
		gamma[i] = complex(float64(i%2), 0)
	}

	a, b := mk(), mk()
	da := downlink(a, tx)
	db := b.DownlinkInto(make([]complex128, len(tx)), tx)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("Downlink mismatch at %d", i)
		}
	}
	ua := uplink(a, da, tx)
	ub := b.UplinkInto(make([]complex128, len(db)), db, tx)
	for i := range ua {
		if ua[i] != ub[i] {
			t.Fatalf("Uplink mismatch at %d", i)
		}
	}
	ra, err := a.RoundTrip(tx, gamma, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RoundTripInto(make([]complex128, len(tx)), tx, gamma, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("RoundTrip mismatch at %d", i)
		}
	}
}

// TestSteadyStateAllocs pins the allocation discipline: once warmed up,
// the per-round channel pipeline — geometry rebuild plus round trip with
// colored noise, fading and leakage — performs zero heap allocations.
func TestSteadyStateAllocs(t *testing.T) {
	l, err := New(fullCfg())
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]complex128, 1024)
	gamma := make([]complex128, 1024)
	dst := make([]complex128, 1024)
	for i := range tx {
		tx[i] = complex(1e8, 0)
		gamma[i] = complex(float64(i%2), 0)
	}
	g := Geometry{ReaderDepth: 2.01, NodeDepth: 2.49, Range: 50.02}
	// Warm the workspace and tap storage.
	if err := l.Rebuild(g, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RoundTripInto(dst, tx, gamma, 0.01); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(50, func() {
		if err := l.Rebuild(g, 6); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Rebuild allocates %.1f times per call in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := l.RoundTripInto(dst, tx, gamma, 0.01); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RoundTripInto allocates %.1f times per call in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		l.DownlinkInto(dst, tx)
	}); n != 0 {
		t.Errorf("DownlinkInto allocates %.1f times per call in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		l.UplinkInto(dst, tx, nil)
	}); n != 0 {
		t.Errorf("UplinkInto allocates %.1f times per call in steady state, want 0", n)
	}
}

// TestTDLFrequencyMatchesTime checks the overlap-save engine against the
// reference time-domain arithmetic: relative error must sit at numerical
// noise, far below the −120 dB acceptance bound.
func TestTDLFrequencyMatchesTime(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, nTaps := range []int{1, 4, 16, 64} {
		for _, n := range []int{100, 1000, 4096} {
			taps := make([]Tap, nTaps)
			for i := range taps {
				taps[i] = Tap{
					DelaySamples: 800 + rng.Float64()*300,
					Gain:         complex(rng.NormFloat64(), rng.NormFloat64()),
				}
			}
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			want := make([]complex128, n)
			NewTDL(taps, false).Apply(want, x)
			got := make([]complex128, n)
			ftdl := NewTDL(taps, true)
			ftdl.Apply(got, x)

			var errE, refE float64
			for i := range want {
				d := got[i] - want[i]
				errE += real(d)*real(d) + imag(d)*imag(d)
				refE += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
			}
			if refE == 0 {
				t.Fatalf("taps=%d n=%d: degenerate reference", nTaps, n)
			}
			relDB := 10 * math.Log10(errE/refE)
			if !(relDB < -120) {
				t.Errorf("taps=%d n=%d: overlap-save error %.1f dB relative, want < -120 dB", nTaps, n, relDB)
			}

			// Steady state: the frequency engine must not allocate either.
			if a := testing.AllocsPerRun(10, func() { ftdl.Apply(got, x) }); a != 0 {
				t.Errorf("taps=%d n=%d: frequency TDL allocates %.1f per Apply", nTaps, n, a)
			}
		}
	}
}

// TestWenzShaperCache verifies the cached design equals a direct design
// and that per-link filters do not share mutable state.
func TestWenzShaperCache(t *testing.T) {
	cfg := testCfg()
	cfg.DisableNoise = false
	cfg.ColoredNoise = true
	direct, err := wenzShaper(cfg.Env, cfg.CarrierHz, cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := wenzShaperTaps(cfg.Env, cfg.CarrierHz, cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	dt := direct.Taps()
	if len(dt) != len(cached) {
		t.Fatalf("tap count %d != %d", len(cached), len(dt))
	}
	for i := range dt {
		if dt[i] != cached[i] {
			t.Fatalf("cached tap %d = %v, direct %v", i, cached[i], dt[i])
		}
	}
	// Two links over the same environment share the design but not the
	// filter: running one's shaper must not perturb the other's stream.
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.shaper == b.shaper {
		t.Fatal("links share one CFIR instance (mutable state aliasing)")
	}
	ya := uplink(a, make([]complex128, 256), nil)
	yb := uplink(b, make([]complex128, 256), nil)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatalf("equal-seed links diverged at %d: %v != %v", i, ya[i], yb[i])
		}
	}
	if cmplx.Abs(ya[40]) == 0 {
		t.Fatal("shaped noise came out zero")
	}
}
