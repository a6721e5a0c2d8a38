package ocean

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSoundSpeedKnownValues(t *testing.T) {
	// Mackenzie reference point: T=25°C, S=35 ppt, D=1000 m → 1550.744 m/s.
	e := &Environment{Temperature: 25, Salinity: 35}
	got := e.SoundSpeed(1000)
	if math.Abs(got-1550.744) > 0.01 {
		t.Errorf("Mackenzie reference = %v, want 1550.744", got)
	}
	// Fresh water at 15 °C near the surface: ~1466 m/s (tabulated ~1466).
	r := CharlesRiver()
	c := r.SoundSpeed(1)
	if c < 1450 || c > 1485 {
		t.Errorf("river sound speed %v outside plausible band", c)
	}
	// Warmer and saltier water is faster.
	cold := &Environment{Temperature: 5, Salinity: 30}
	warm := &Environment{Temperature: 20, Salinity: 35}
	if cold.SoundSpeed(5) >= warm.SoundSpeed(5) {
		t.Error("sound speed should increase with temperature/salinity")
	}
}

func TestSoundSpeedIncreasesWithDepthProperty(t *testing.T) {
	f := func(d1, d2 float64) bool {
		e := AtlanticCoastal()
		a := math.Mod(math.Abs(d1), 1000)
		b := math.Mod(math.Abs(d2), 1000)
		if a > b {
			a, b = b, a
		}
		return e.SoundSpeed(a) <= e.SoundSpeed(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanSoundSpeed(t *testing.T) {
	e := AtlanticCoastal()
	m := e.MeanSoundSpeed()
	if m < e.SoundSpeed(0) || m > e.SoundSpeed(e.Depth) {
		t.Errorf("mean %v outside endpoint range [%v, %v]", m, e.SoundSpeed(0), e.SoundSpeed(e.Depth))
	}
}

func TestThorpKnownValues(t *testing.T) {
	// At 10 kHz Thorp gives roughly 1 dB/km; at 50 kHz roughly 15 dB/km.
	a10 := thorpAbsorption(10e3)
	if a10 < 0.5 || a10 > 1.5 {
		t.Errorf("Thorp(10 kHz) = %v dB/km, want ~1", a10)
	}
	a50 := thorpAbsorption(50e3)
	if a50 < 10 || a50 > 20 {
		t.Errorf("Thorp(50 kHz) = %v dB/km, want ~15", a50)
	}
	// Monotone increasing in frequency.
	prev := 0.0
	for f := 100.0; f < 100e3; f *= 1.3 {
		a := thorpAbsorption(f)
		if a < prev {
			t.Fatalf("Thorp not monotone at %v Hz", f)
		}
		prev = a
	}
}

func TestFrancoisGarrisonVsThorp(t *testing.T) {
	// For standard seawater the two models should agree within a factor ~2
	// over 1–50 kHz.
	e := &Environment{Temperature: 4, Salinity: 35, PH: 8}
	for _, f := range []float64{1e3, 5e3, 18.5e3, 50e3} {
		fg := e.Absorption(f, 10)
		th := thorpAbsorption(f)
		if fg < th/2.5 || fg > th*2.5 {
			t.Errorf("f=%v: FG %v vs Thorp %v disagree wildly", f, fg, th)
		}
	}
}

func TestFreshWaterAbsorptionMuchLower(t *testing.T) {
	river := CharlesRiver()
	sea := AtlanticCoastal()
	f := 18.5e3
	ar := river.AbsorptionMid(f)
	as := sea.AbsorptionMid(f)
	if ar >= as/3 {
		t.Errorf("river absorption %v dB/km should be far below ocean %v dB/km", ar, as)
	}
	if ar <= 0 || as <= 0 {
		t.Error("absorption must be positive")
	}
}

func TestTransmissionLoss(t *testing.T) {
	e := AtlanticCoastal()
	f := 18.5e3
	if tl := e.TransmissionLoss(f, 1); tl != 0 {
		t.Errorf("TL at reference distance = %v, want 0", tl)
	}
	// At 100 m: k·20 dB + absorption·0.1 km.
	want := e.SpreadingExponent*20 + e.AbsorptionMid(f)*0.1
	if got := e.TransmissionLoss(f, 100); math.Abs(got-want) > 1e-9 {
		t.Errorf("TL(100) = %v, want %v", got, want)
	}
}

func TestTransmissionLossMonotoneProperty(t *testing.T) {
	e := CharlesRiver()
	f := func(r1, r2 float64) bool {
		a := 1 + math.Mod(math.Abs(r1), 1e4)
		b := 1 + math.Mod(math.Abs(r2), 1e4)
		if a > b {
			a, b = b, a
		}
		return e.TransmissionLoss(18.5e3, a) <= e.TransmissionLoss(18.5e3, b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoisePSDShape(t *testing.T) {
	e := AtlanticCoastal()
	// Around 18.5 kHz, coastal noise PSD should be in the 30–65 dB range.
	n := e.NoisePSD(18.5e3)
	if n < 25 || n > 70 {
		t.Errorf("NoisePSD(18.5k) = %v dB, implausible", n)
	}
	// More wind → more noise at mid frequencies.
	calm := *e
	calm.WindSpeed = 0
	if calm.NoisePSD(18.5e3) >= e.NoisePSD(18.5e3) {
		t.Error("wind should raise the noise floor")
	}
	// More shipping → more noise at low frequencies (300 Hz).
	quiet := *e
	quiet.Shipping = 0
	if quiet.NoisePSD(300) >= e.NoisePSD(300) {
		t.Error("shipping should raise low-frequency noise")
	}
}

func TestNoiseLevelBandIntegration(t *testing.T) {
	e := CharlesRiver()
	f := 18.5e3
	psd := e.NoisePSD(f)
	// A 1 Hz band should give back ~the PSD.
	if got := e.NoiseLevel(f, 1); math.Abs(got-psd) > 0.5 {
		t.Errorf("NL(1 Hz band) = %v, PSD = %v", got, psd)
	}
	// A 1 kHz band should be ~30 dB above the PSD.
	if got := e.NoiseLevel(f, 1000); math.Abs(got-(psd+30)) > 1 {
		t.Errorf("NL(1 kHz band) = %v, want ~%v", got, psd+30)
	}
	// Zero bandwidth degenerates to PSD.
	if got := e.NoiseLevel(f, 0); got != psd {
		t.Errorf("NL(0) = %v, want %v", got, psd)
	}
}

func TestOceanNoisierThanRiver(t *testing.T) {
	if AtlanticCoastal().NoisePSD(18.5e3) <= CharlesRiver().NoisePSD(18.5e3) {
		t.Error("ocean preset should be noisier than river at the carrier")
	}
}

func TestValidatePresets(t *testing.T) {
	for _, e := range []*Environment{CharlesRiver(), AtlanticCoastal(), TestTank()} {
		if err := e.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	bad := []func(*Environment){
		func(e *Environment) { e.Depth = 0 },
		func(e *Environment) { e.Temperature = 99 },
		func(e *Environment) { e.Salinity = -1 },
		func(e *Environment) { e.WindSpeed = -2 },
		func(e *Environment) { e.Shipping = 1.5 },
		func(e *Environment) { e.BottomDensity = 500 },
		func(e *Environment) { e.BottomSoundSpeed = 0 },
		func(e *Environment) { e.SpreadingExponent = 3 },
	}
	for i, mutate := range bad {
		e := CharlesRiver()
		mutate(e)
		if err := e.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

// thorpAbsorption is Thorp's empirical seawater absorption in dB/km at fHz
// (valid roughly 100 Hz – 50 kHz, 4 °C, 35 ppt), the standard first-order
// model the Francois–Garrison implementation is checked against.
func thorpAbsorption(fHz float64) float64 {
	f := fHz / 1000 // kHz
	f2 := f * f
	return 0.11*f2/(1+f2) + 44*f2/(4100+f2) + 2.75e-4*f2 + 0.003
}
