package mac

import (
	"math"
	"math/rand"
	"testing"
)

func newRC(t *testing.T) *RateController {
	t.Helper()
	rc, err := NewRateController([]float64{125, 250, 500, 1000, 2000}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func TestRateControllerValidation(t *testing.T) {
	if _, err := NewRateController([]float64{500}, 11); err == nil {
		t.Error("single rate accepted")
	}
	if _, err := NewRateController([]float64{500, 250}, 11); err == nil {
		t.Error("descending rates accepted")
	}
	if _, err := NewRateController([]float64{-1, 250}, 11); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestRateControllerStartsRobust(t *testing.T) {
	rc := newRC(t)
	if rc.Rate() != 125 {
		t.Errorf("initial rate %v, want the most robust", rc.Rate())
	}
}

func TestRateControllerClimbsOnStrongSNR(t *testing.T) {
	rc := newRC(t)
	// Very strong channel: ample for the top rate (requirement there is
	// 11 + 12 dB; + margin 6 → 29 dB at base).
	for i := 0; i < 20; i++ {
		rc.Observe(40)
	}
	if r := rc.Rate(); r != 2000 {
		t.Errorf("rate %v after strong SNR, want 2000", r)
	}
}

func TestRateControllerHoldsAtSustainableRate(t *testing.T) {
	rc := newRC(t)
	// SNR that supports 500 cps but not 1000: requirement at 500 is
	// 11+6=17 dB; at 1000 it is 20 dB (+6 margin = 26 at base scale).
	// Feed a mid-level channel and check it settles between the extremes.
	for i := 0; i < 30; i++ {
		// Observed SNR at the *current* rate: emulate a channel with 24 dB
		// at the 125 cps base → at rate R it reads 24 − 10log10(R/125).
		rc.Observe(24 - 10*logRatio(rc.Rate(), 125))
	}
	r := rc.Rate()
	if r != 250 && r != 500 {
		t.Errorf("settled at %v, want a middle rate", r)
	}
	// And it must stay there (no flapping) under small wiggle.
	settled := r
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		rc.Observe(24 - 10*logRatio(rc.Rate(), 125) + rng.Float64()*2 - 1)
		if r = rc.Rate(); r != settled {
			t.Fatalf("rate flapped from %v to %v under ±1 dB wiggle", settled, r)
		}
	}
}

func TestRateControllerStepsDownOnFade(t *testing.T) {
	rc := newRC(t)
	for i := 0; i < 10; i++ {
		rc.Observe(40)
	}
	if rc.Rate() != 2000 {
		t.Fatal("setup failed")
	}
	// Channel collapses 25 dB: controller must descend.
	for i := 0; i < 20; i++ {
		rc.Observe(15 - 10*logRatio(rc.Rate(), 125))
	}
	if r := rc.Rate(); r > 250 {
		t.Errorf("rate %v after fade, want <= 250", r)
	}
}

func TestRateControllerObserveLoss(t *testing.T) {
	rc := newRC(t)
	for i := 0; i < 10; i++ {
		rc.Observe(40)
	}
	top := rc.Rate()
	rc.ObserveLoss()
	if r := rc.Rate(); r >= top {
		t.Errorf("loss should step down: %v -> %v", top, r)
	}
	// Repeated losses bottom out without panicking.
	for i := 0; i < 10; i++ {
		rc.ObserveLoss()
	}
	if r := rc.Rate(); r != 125 {
		t.Errorf("rate %v after loss storm, want floor", r)
	}
}

func logRatio(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Log10(a / b)
}
