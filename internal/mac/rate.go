package mac

import (
	"fmt"
	"math"

	"vab/internal/telemetry"
)

// RateController adapts the link's chip rate to the observed channel: the
// paper evaluates throughput at fixed rates (its E7 axis); a deployed
// network instead walks that trade-off automatically. Physics of the
// backscatter link: the detection bin is one chip wide, so halving the chip
// rate buys 3 dB of tone SNR; the controller climbs to the fastest rate
// whose SNR still clears the requirement with margin, with hysteresis so
// fading wiggle doesn't flap the rate.
type RateController struct {
	// Rates are the available chip rates in ascending order.
	Rates []float64
	// RequiredSNRdB is the tone SNR needed at the *lowest* rate for the
	// target BER (the per-rate requirement adds 3 dB per doubling).
	RequiredSNRdB float64
	// Smoothing is the EWMA coefficient on SNR observations in (0, 1];
	// 1 reacts instantly, small values average long (default 0.3).
	Smoothing float64

	idx    int
	ewmaDB float64
	primed bool
	met    rateMetrics
}

// rateMetrics instruments rate-controller decisions. Zero value = noop.
type rateMetrics struct {
	stepsUp   *telemetry.Counter
	stepsDown *telemetry.Counter
	lossSteps *telemetry.Counter
	chipRate  *telemetry.Gauge
	snrEWMA   *telemetry.Gauge
}

// Instrument registers rate-adaptation metrics in reg and starts
// recording. A nil registry leaves the controller uninstrumented.
func (rc *RateController) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	rc.met = rateMetrics{
		stepsUp: reg.Counter("vab_mac_rate_steps_up_total",
			"Rate-controller steps to a faster chip rate."),
		stepsDown: reg.Counter("vab_mac_rate_steps_down_total",
			"Rate-controller steps to a slower chip rate on SNR deficit."),
		lossSteps: reg.Counter("vab_mac_rate_loss_steps_total",
			"Immediate step-downs triggered by a lost round."),
		chipRate: reg.Gauge("vab_mac_rate_chips_per_second",
			"Currently selected chip rate."),
		snrEWMA: reg.Gauge("vab_mac_rate_snr_ewma_db",
			"Smoothed SNR belief normalized to the lowest rate, dB."),
	}
	rc.met.chipRate.Set(rc.Rate())
}

// upMarginDB is the extra headroom demanded before stepping up,
// downMarginDB the deficit tolerated before stepping down; upMarginDB >
// downMarginDB gives hysteresis.
const upMarginDB, downMarginDB = 6, 1

// NewRateController validates and builds a controller starting at the
// lowest (most robust) rate.
func NewRateController(rates []float64, requiredSNRdB float64) (*RateController, error) {
	if len(rates) < 2 {
		return nil, fmt.Errorf("mac: rate adaptation needs at least 2 rates, got %d", len(rates))
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			return nil, fmt.Errorf("mac: rates must ascend, got %v", rates)
		}
	}
	if rates[0] <= 0 {
		return nil, fmt.Errorf("mac: rates must be positive")
	}
	return &RateController{
		Rates:         append([]float64(nil), rates...),
		RequiredSNRdB: requiredSNRdB,
		Smoothing:     0.3,
	}, nil
}

// Rate returns the currently selected chip rate.
func (rc *RateController) Rate() float64 { return rc.Rates[rc.idx] }

// requiredAt returns the tone SNR requirement at rate index i: the base
// requirement plus the noise-bandwidth penalty relative to the lowest rate.
func (rc *RateController) requiredAt(i int) float64 {
	return rc.RequiredSNRdB + 10*math.Log10(rc.Rates[i]/rc.Rates[0])
}

// Observe feeds one per-round tone SNR measurement (dB, at the *current*
// rate); Rate then returns the rate to use for the next round. A failed
// round (no decode) should be reported with ObserveLoss instead.
func (rc *RateController) Observe(snrDB float64) {
	// Normalize the observation to the lowest rate before smoothing:
	// measured at rate idx, the equivalent SNR at rate 0 is higher by the
	// bandwidth ratio. Smoothing raw values across rate changes would mix
	// incomparable measurements.
	atBase := snrDB + 10*math.Log10(rc.Rates[rc.idx]/rc.Rates[0])
	if !rc.primed {
		rc.ewmaDB = atBase
		rc.primed = true
	} else {
		a := rc.Smoothing
		rc.ewmaDB = a*atBase + (1-a)*rc.ewmaDB
	}

	for rc.idx+1 < len(rc.Rates) &&
		rc.ewmaDB >= rc.requiredAt(rc.idx+1)+upMarginDB {
		rc.idx++
		rc.met.stepsUp.Inc()
	}
	for rc.idx > 0 && rc.ewmaDB < rc.requiredAt(rc.idx)+downMarginDB {
		rc.idx--
		rc.met.stepsDown.Inc()
	}
	rc.met.chipRate.Set(rc.Rate())
	rc.met.snrEWMA.Set(rc.ewmaDB)
}

// ObserveLoss reports a failed round: the controller immediately steps down
// one rate (multiplicative decrease) and discounts its SNR belief.
func (rc *RateController) ObserveLoss() {
	if rc.idx > 0 {
		rc.idx--
		rc.met.lossSteps.Inc()
	}
	if rc.primed {
		rc.ewmaDB -= 3
		rc.met.snrEWMA.Set(rc.ewmaDB)
	}
	rc.met.chipRate.Set(rc.Rate())
}
