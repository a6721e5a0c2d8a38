package faults

import (
	"math"
	"math/rand"
	"testing"
)

// freshPlan is Plan as it was before pooling, without the metrics: every
// draw stream gets a fresh rand.New(rand.NewSource(seed)). Plan must match
// it bit for bit.
func freshPlan(e *Engine, round int) RoundPlan {
	plan := RoundPlan{Round: round}
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Intensity == 0 {
			continue
		}
		switch f.Type {
		case Impulse:
			rng := rand.New(rand.NewSource(e.drawSeed(i, round)))
			n := poisson(f.RatePerRound*f.Intensity, rng)
			for b := 0; b < n; b++ {
				plan.Bursts = append(plan.Bursts, Burst{
					StartFrac: rng.Float64(),
					LenSec:    f.BurstLenSec * (0.5 + rng.Float64()),
					PowerDB:   f.PowerDB + 6*(rng.Float64()-0.5),
				})
			}
		case Shadowing:
			if db := freshShadowDB(e, i, f, round); db > 0 && plan.ShadowDB < db {
				plan.ShadowDB = db
			}
		case ElementFailure:
			if frac := f.DeadFrac * f.Intensity; frac > plan.DeadFrac {
				plan.DeadFrac = frac
				plan.FailSeed = e.drawSeed(i, 0)
			}
		case Brownout:
			rng := rand.New(rand.NewSource(e.drawSeed(i, round)))
			if rng.Float64() < f.OutageProb*f.Intensity {
				plan.Brownout = true
			}
		case ClockStep:
			plan.ClockPPMDelta += f.StepPPM * f.Intensity
		}
	}
	return plan
}

// freshShadowDB is shadowDB with a fresh source per period.
func freshShadowDB(e *Engine, idx int, f *Fault, round int) float64 {
	period := max(f.PeriodRounds, 1)
	k := round / period
	var db float64
	for _, kk := range [3]int{k - 1, k, k + 1} {
		if kk < 0 {
			continue
		}
		rng := rand.New(rand.NewSource(e.drawSeed(idx, -1000000-kk)))
		if rng.Float64() > 0.35+0.45*f.Intensity {
			continue
		}
		center := float64(kk*period) + rng.Float64()*float64(period)
		width := (0.1 + 0.2*rng.Float64()) * float64(period)
		peak := f.AttenDB * f.Intensity * (0.6 + 0.4*rng.Float64())
		d := (float64(round) - center) / width
		db += peak * math.Exp(-0.5*d*d)
	}
	return db
}

// samePlanBits compares two plans field by field, floats by their bits.
func samePlanBits(a, b RoundPlan) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Round != b.Round || len(a.Bursts) != len(b.Bursts) || !eq(a.ShadowDB, b.ShadowDB) ||
		!eq(a.DeadFrac, b.DeadFrac) || a.FailSeed != b.FailSeed || a.Brownout != b.Brownout ||
		!eq(a.ClockPPMDelta, b.ClockPPMDelta) {
		return false
	}
	for i, x := range a.Bursts {
		y := b.Bursts[i]
		if !eq(x.StartFrac, y.StartFrac) || !eq(x.LenSec, y.LenSec) || !eq(x.PowerDB, y.PowerDB) {
			return false
		}
	}
	return true
}

// TestPooledPlanMatchesFreshSources pins Plan's pooled, reseeded RNGs to
// fresh sources over 10k rounds of the full chaos scenario at two seeds,
// with the pool recycling the same few RNGs between every draw stream.
func TestPooledPlanMatchesFreshSources(t *testing.T) {
	bursts := 0
	for _, seed := range []int64{7, 1234} {
		e, err := NewEngine(chaosScenario(seed))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10000; r++ {
			got, want := e.Plan(r), freshPlan(e, r)
			if !samePlanBits(got, want) {
				t.Fatalf("seed %d round %d: pooled plan %+v, fresh %+v", seed, r, got, want)
			}
			bursts += len(got.Bursts)
		}
	}
	if bursts == 0 {
		t.Fatal("no impulse bursts drawn; the comparison exercised nothing")
	}
}
