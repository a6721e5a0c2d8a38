package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"vab/internal/dsp"
	"vab/internal/ocean"
)

func testCfg() Config {
	return Config{
		Env:           ocean.CharlesRiver(),
		CarrierHz:     18.5e3,
		SampleRate:    16e3,
		ReaderDepth:   2,
		NodeDepth:     2.5,
		Range:         50,
		DisableNoise:  true,
		DisableFading: true,
		Seed:          1,
	}
}

func TestNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Env = nil },
		func(c *Config) { c.CarrierHz = 0 },
		func(c *Config) { c.SampleRate = -1 },
		func(c *Config) { c.Range = 0 },
		func(c *Config) { c.ReaderDepth = 0 },
		func(c *Config) { c.NodeDepth = 100 }, // below the bottom
		func(c *Config) { c.Env = &ocean.Environment{} },
	}
	for i, mutate := range bad {
		cfg := testCfg()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestTapsReciprocity(t *testing.T) {
	l, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	down, up := l.DownTaps(), l.UpTaps()
	if len(down) == 0 || len(down) != len(up) {
		t.Fatalf("tap counts: down %d up %d", len(down), len(up))
	}
	// Reciprocal geometry: same delays and gain magnitudes.
	for i := range down {
		if math.Abs(down[i].DelaySamples-up[i].DelaySamples) > 1e-6 {
			t.Errorf("tap %d delay asymmetric", i)
		}
		if math.Abs(cmplx.Abs(down[i].Gain)-cmplx.Abs(up[i].Gain)) > 1e-12 {
			t.Errorf("tap %d gain asymmetric", i)
		}
	}
}

func TestDownlinkScalesWithRange(t *testing.T) {
	// A single-frequency envelope is at the mercy of multipath interference
	// at any one range, so compare the incoherent tap power, which must
	// track the k·10·log10(r) + α·r transmission-loss trend.
	near := testCfg()
	far := testCfg()
	far.Range = 400
	ln, _ := New(near)
	lf, _ := New(far)
	pwr := func(taps []Tap) float64 {
		var p float64
		for _, tp := range taps {
			p += real(tp.Gain)*real(tp.Gain) + imag(tp.Gain)*imag(tp.Gain)
		}
		return p
	}
	pn := pwr(ln.DownTaps())
	pf := pwr(lf.DownTaps())
	if pf >= pn {
		t.Fatalf("far power %v should be below near power %v", pf, pn)
	}
	// Spreading alone predicts 1.5·10·log10(400/50) ≈ 13.5 dB; boundary
	// losses at the extra bounces add a few more dB.
	dropDB := 10 * math.Log10(pn/pf)
	if dropDB < 8 || dropDB > 30 {
		t.Errorf("range 50→400 m drop = %v dB, want roughly 13-20", dropDB)
	}
}

func TestUplinkAddsNoise(t *testing.T) {
	cfg := testCfg()
	cfg.DisableNoise = false
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.NoiseAmplitude() <= 0 {
		t.Fatal("noise amplitude should be positive")
	}
	silent := make([]complex128, 4096)
	y := l.Uplink(silent, nil)
	p := dsp.Power(y)
	want := l.NoiseAmplitude() * l.NoiseAmplitude()
	if math.Abs(p-want)/want > 0.1 {
		t.Errorf("noise power %v, want %v", p, want)
	}
}

func TestSelfInterferenceLeak(t *testing.T) {
	cfg := testCfg()
	cfg.SelfInterferenceDB = -20
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tx := make([]complex128, 1024)
	for i := range tx {
		tx[i] = complex(1e6, 0) // 120 dB source
	}
	y := l.Uplink(make([]complex128, 1024), tx)
	// Leak should dominate: 1e6 · 10^(−20/20) = 1e5 amplitude.
	if m := cmplx.Abs(y[100]); math.Abs(m-1e5) > 1 {
		t.Errorf("leak amplitude %v, want 1e5", m)
	}
	// Without the tx reference no leak is injected.
	y2 := l.Uplink(make([]complex128, 1024), nil)
	if cmplx.Abs(y2[100]) != 0 {
		t.Error("leak injected without tx reference")
	}
}

func TestRoundTripLengthAndErrors(t *testing.T) {
	l, _ := New(testCfg())
	tx := make([]complex128, 256)
	gamma := make([]complex128, 256)
	for i := range tx {
		tx[i] = 1
		gamma[i] = 1
	}
	y, err := l.RoundTrip(tx, gamma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != len(tx) {
		t.Errorf("round trip length %d, want %d", len(y), len(tx))
	}
	if _, err := l.RoundTrip(tx, gamma[:100], 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestRoundTripGainMatchesTLBudget(t *testing.T) {
	// The coherent round-trip gain should track −2·TL(r) within the
	// multipath interference margin.
	cfg := testCfg()
	l, _ := New(cfg)
	got := l.RoundTripGainDB()
	tl := cfg.Env.TransmissionLoss(cfg.CarrierHz, cfg.Range)
	want := -2 * tl
	if math.Abs(got-want) > 12 {
		t.Errorf("round-trip gain %v dB, budget %v dB", got, want)
	}
}

func TestRoundTripModulationTransfersToSidebands(t *testing.T) {
	// Toggling gamma at f_sub must move round-trip energy to the ±f_sub
	// sidebands at the reader.
	cfg := testCfg()
	l, _ := New(cfg)
	n := 4096
	fs := cfg.SampleRate
	fsub := 1000.0
	tx := make([]complex128, n)
	gamma := make([]complex128, n)
	for i := range tx {
		tx[i] = 1
		// Square-wave reflection toggle between 0 and 1.
		if math.Sin(2*math.Pi*fsub*float64(i)/fs) >= 0 {
			gamma[i] = 1
		}
	}
	y, err := l.RoundTrip(tx, gamma, 1)
	if err != nil {
		t.Fatal(err)
	}
	gSub := dsp.NewGoertzel(fsub, fs)
	gOff := dsp.NewGoertzel(fsub*1.37, fs)
	tail := y[n/2:]
	eSub := gSub.Energy(tail)
	eOff := gOff.Energy(tail)
	if eSub < 100*eOff {
		t.Errorf("subcarrier energy %v should dominate off-tone %v", eSub, eOff)
	}
}

func TestInjectBurst(t *testing.T) {
	cfg := testCfg()
	cfg.DisableNoise = false
	l, _ := New(cfg)
	y := make([]complex128, 1000)
	l.InjectBurst(y, 100, 50, 30)
	var inBurst, outBurst float64
	for i := 100; i < 150; i++ {
		inBurst += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	for i := 200; i < 250; i++ {
		outBurst += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	if inBurst <= 100*outBurst {
		t.Errorf("burst energy %v not localized (elsewhere %v)", inBurst, outBurst)
	}
	// Clipping at slice bounds must not panic.
	l.InjectBurst(y, 990, 50, 10)
	l.InjectBurst(y, -10, 20, 10)
}

// InjectBurst clamps every window against the slice bounds and reports how
// many samples it actually perturbed; degenerate requests touch nothing.
func TestInjectBurstBounds(t *testing.T) {
	cfg := testCfg()
	cfg.DisableNoise = false
	l, _ := New(cfg)
	y := make([]complex128, 1000)

	cases := []struct {
		name     string
		start, n int
		want     int
	}{
		{"in-bounds", 100, 50, 50},
		{"tail-clip", 990, 50, 10},
		{"head-clip", -10, 30, 20},
		{"entirely-before", -50, 20, 0},
		{"entirely-after", 1000, 20, 0},
		{"far-after", 5000, 20, 0},
		{"zero-len", 100, 0, 0},
		{"negative-len", 100, -5, 0},
		{"covers-all", -100, 5000, 1000},
	}
	for _, tc := range cases {
		if got := l.InjectBurst(y, tc.start, tc.n, 20); got != tc.want {
			t.Errorf("%s: InjectBurst(start=%d, n=%d) perturbed %d samples, want %d",
				tc.name, tc.start, tc.n, got, tc.want)
		}
	}

	// A fully out-of-bounds burst must leave the waveform untouched.
	z := make([]complex128, 16)
	l.InjectBurst(z, -100, 50, 40)
	l.InjectBurst(z, 16, 50, 40)
	l.InjectBurst(z, 4, -1, 40)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("sample %d perturbed by out-of-bounds burst: %v", i, v)
		}
	}
}

func TestFadingVariesUplink(t *testing.T) {
	cfg := testCfg()
	cfg.Env = ocean.AtlanticCoastal()
	cfg.Env.SurfaceSpeed = 1.0 // exaggerate motion
	cfg.ReaderDepth, cfg.NodeDepth = 5, 6
	cfg.DisableFading = false
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 8000)
	for i := range x {
		x[i] = 1
	}
	y := l.Uplink(x, nil)
	// The envelope should wander: compare power over two halves.
	tail := y[2000:]
	mags := make([]float64, len(tail))
	for i, v := range tail {
		mags[i] = cmplx.Abs(v)
	}
	if dsp.StdDev(mags) < 0.01*dsp.Mean(mags) {
		t.Error("fading produced an essentially static envelope")
	}
}

func TestApplyTDLRemovesBulkDelay(t *testing.T) {
	taps := []Tap{{DelaySamples: 1000, Gain: 1}}
	x := []complex128{1, 2, 3, 4}
	y := applyTDL(x, taps)
	if y[0] != 1 || y[3] != 4 {
		t.Errorf("bulk delay not removed: %v", y)
	}
	if out := applyTDL(x, nil); len(out) != len(x) {
		t.Error("empty taps should give zero output of same length")
	}
}

// applyTDL is the historical allocating helper, kept in the tests as a
// thin shim over the time engine the package now uses.
func applyTDL(x []complex128, taps []Tap) []complex128 {
	out := make([]complex128, len(x))
	NewTDL(taps, false).Apply(out, x)
	return out
}

func TestApplyTDLRelativeDelays(t *testing.T) {
	taps := []Tap{
		{DelaySamples: 10, Gain: 1},
		{DelaySamples: 12.4, Gain: complex(0.5, 0)}, // rounds to +2
	}
	x := []complex128{1, 0, 0, 0, 0}
	y := applyTDL(x, taps)
	want := []complex128{1, 0, 0.5, 0, 0}
	for i := range want {
		if !cEq(y[i], want[i]) {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func cEq(a, b complex128) bool { return cmplx.Abs(a-b) < 1e-12 }

func TestRoundTripAbsolutePreservesDelay(t *testing.T) {
	cfg := testCfg()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 2048
	tx := make([]complex128, n)
	gamma := make([]complex128, n)
	for i := range tx {
		tx[i] = 1
		if i >= 256 && math.Sin(2*math.Pi*1000*float64(i)/cfg.SampleRate) >= 0 {
			gamma[i] = 1
		}
	}
	y, err := l.RoundTripAbsolute(tx, gamma, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(y) <= n {
		t.Fatalf("absolute capture %d should exceed input %d", len(y), n)
	}
	// The modulated energy must appear only after the round-trip bulk
	// delay plus the gamma offset.
	bulk := int(l.BulkDelaySeconds() * cfg.SampleRate)
	if bulk <= 0 {
		t.Fatal("bulk delay should be positive")
	}
	var early, late float64
	for i := 0; i < bulk+200; i++ {
		early += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	for i := bulk + 256; i < bulk+256+1024 && i < len(y); i++ {
		late += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
	}
	if late < 100*early {
		t.Errorf("energy not delayed: early %v late %v (bulk %d)", early, late, bulk)
	}
	// Expected bulk delay ≈ 2·range/c.
	want := 2 * cfg.Range / cfg.Env.MeanSoundSpeed()
	if math.Abs(l.BulkDelaySeconds()-want) > 0.001 {
		t.Errorf("bulk delay %v s, want ~%v", l.BulkDelaySeconds(), want)
	}
}

func TestRoundTripAbsoluteErrors(t *testing.T) {
	l, _ := New(testCfg())
	if _, err := l.RoundTripAbsolute(make([]complex128, 4), make([]complex128, 3), 1); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestColoredNoiseFollowsWenzSlope(t *testing.T) {
	cfg := testCfg()
	cfg.DisableNoise = false
	cfg.ColoredNoise = true
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	y := l.Uplink(make([]complex128, 1<<16), nil)
	// Wenz falls with frequency: the bin at -6 kHz baseband (12.5 kHz
	// absolute) must carry more noise than the bin at +6 kHz (24.5 kHz).
	gLow := dsp.NewGoertzel(-6000, cfg.SampleRate)
	gHigh := dsp.NewGoertzel(6000, cfg.SampleRate)
	var lo, hi float64
	block := 1024
	for off := 1024; off+block <= len(y); off += block {
		lo += gLow.Energy(y[off : off+block])
		hi += gHigh.Energy(y[off : off+block])
	}
	wantRatio := math.Pow(10, (cfg.Env.NoisePSD(12.5e3)-cfg.Env.NoisePSD(24.5e3))/10)
	got := lo / hi
	if got < wantRatio/2 || got > wantRatio*2 {
		t.Errorf("colored-noise band ratio %v, Wenz predicts %v", got, wantRatio)
	}
	// Total power stays calibrated to the white-noise level.
	if p := dsp.Power(y[1024:]); math.Abs(p-l.NoiseAmplitude()*l.NoiseAmplitude()) > 0.25*l.NoiseAmplitude()*l.NoiseAmplitude() {
		t.Errorf("colored noise power %v, want ~%v", p, l.NoiseAmplitude()*l.NoiseAmplitude())
	}
}
