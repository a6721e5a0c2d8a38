package core

import (
	"fmt"
	"math"

	"vab/internal/ocean"
	"vab/internal/phy"
)

// LinkBudget predicts uplink detection performance analytically: the
// link-level fidelity tier used for wide range sweeps and Monte-Carlo
// campaigns. Its terms mirror the sonar equation for a round trip:
//
//	SNR_tone = SL − 2·TL(r) + G_node(θ) − NL(bin) + G_div − L_SI
//
// where G_node bundles the design's scatter field gain, modulation depth,
// square-wave fundamental factor and structural loss; NL is ambient noise
// in one Goertzel bin (bandwidth = chip rate); G_div the diversity gain and
// L_SI the in-band self-interference penalty (both design/receiver
// dependent).
type LinkBudget struct {
	Env    *ocean.Environment
	Design Design

	ChipRate      float64 // detection bin bandwidth
	SourceLevelDB float64

	ReaderDepth float64
	NodeDepth   float64
	Orientation float64 // node rotation seen from the reader, radians

	// Receiver/architecture adjustments (dB).
	DiversityGainDB float64
	SIPenaltyDB     float64

	// DiversityBranches is the number of resolvable multipath arrivals the
	// combiner exploits (1 = no combining). Combining L Rician branches is
	// approximated as a single branch with K_eff = L−1+L·K, the standard
	// Nakagami-m correspondence (m ≈ L ⇒ K ≈ m−1 for the diffuse part).
	DiversityBranches int

	// RicianOverride forces a Rician K-factor (linear) instead of deriving
	// it from multipath geometry; NaN (default) derives it.
	RicianOverride float64
}

// NewLinkBudget returns a budget with the calibrated defaults for the given
// environment and design, at the standard numerology and geometry.
func NewLinkBudget(env *ocean.Environment, d Design) *LinkBudget {
	p := phy.DefaultParams()
	return &LinkBudget{
		Env:               env,
		Design:            d,
		ChipRate:          p.ChipRate,
		SourceLevelDB:     DefaultSourceLevelDB,
		ReaderDepth:       0.4 * env.Depth, // staggered: see SystemConfig
		NodeDepth:         0.6 * env.Depth,
		DiversityGainDB:   DiversityGainDB,
		DiversityBranches: DefaultDiversityBranches,
		RicianOverride:    math.NaN(),
	}
}

// Validate reports configuration problems.
func (b *LinkBudget) Validate() error {
	if b.Env == nil || b.Design == nil {
		return fmt.Errorf("core: budget needs environment and design")
	}
	if err := b.Env.Validate(); err != nil {
		return err
	}
	if b.ChipRate <= 0 {
		return fmt.Errorf("core: chip rate %.3g must be positive", b.ChipRate)
	}
	if b.ReaderDepth <= 0 || b.ReaderDepth > b.Env.Depth || b.NodeDepth <= 0 || b.NodeDepth > b.Env.Depth {
		return fmt.Errorf("core: depths outside water column")
	}
	return nil
}

// ToneSNRdB returns the per-chip tone SNR in dB at horizontal range r
// meters (one-way; the backscatter travels 2r in total).
func (b *LinkBudget) ToneSNRdB(r float64) float64 {
	tl := b.Env.TransmissionLoss(DefaultCarrierHz, r)
	gNode := EffectiveGainDB(b.Design, DefaultCarrierHz, b.Orientation)
	nl := b.Env.NoiseLevel(DefaultCarrierHz, b.ChipRate)
	return b.SourceLevelDB - 2*tl + gNode - nl + b.DiversityGainDB - b.SIPenaltyDB
}

// RicianK returns the fading K-factor (linear) at range r, from the
// multipath geometry unless overridden.
func (b *LinkBudget) RicianK(r float64) float64 {
	if !math.IsNaN(b.RicianOverride) {
		return b.RicianOverride
	}
	arr := b.Env.Multipath(ocean.Geometry{
		SourceDepth: b.ReaderDepth, ReceiverDepth: b.NodeDepth, Range: r,
	}, ocean.DefaultMultipathConfig(DefaultCarrierHz))
	kdb := ocean.RicianK(arr)
	if math.IsInf(kdb, 1) {
		return math.Inf(1)
	}
	return math.Pow(10, kdb/10)
}

// EffectiveRicianK returns the fading K-factor (linear) after diversity
// combining at range r.
func (b *LinkBudget) EffectiveRicianK(r float64) float64 {
	k := b.RicianK(r)
	l := float64(b.DiversityBranches)
	if l < 1 {
		l = 1
	}
	if math.IsInf(k, 1) {
		return k
	}
	return l - 1 + l*k
}

// BER returns the predicted raw chip error rate at range r: noncoherent
// FSK over the (diversity-combined) Rician fading implied by the local
// multipath geometry.
func (b *LinkBudget) BER(r float64) float64 {
	ebn0 := math.Pow(10, b.ToneSNRdB(r)/10)
	return phy.BERNoncoherentFSKRician(ebn0, b.EffectiveRicianK(r))
}

// MaxRange returns the largest range (meters) at which the predicted BER
// stays at or below target, searched over [1, limit] by bisection. Returns
// 0 when even 1 m misses the target.
func (b *LinkBudget) MaxRange(targetBER, limit float64) float64 {
	if b.BER(1) > targetBER {
		return 0
	}
	lo, hi := 1.0, limit
	if b.BER(hi) <= targetBER {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if b.BER(mid) <= targetBER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Terms itemizes the budget at range r for reporting.
type Terms struct {
	SourceLevelDB  float64
	OneWayTLDB     float64
	NodeGainDB     float64
	NoiseLevelDB   float64
	DiversityDB    float64
	SIPenaltyDB    float64
	ToneSNRdB      float64
	RicianKdB      float64
	PredictedBER   float64
	DelaySpreadSec float64
}

// TermsAt evaluates every budget term at range r.
func (b *LinkBudget) TermsAt(r float64) Terms {
	arr := b.Env.Multipath(ocean.Geometry{
		SourceDepth: b.ReaderDepth, ReceiverDepth: b.NodeDepth, Range: r,
	}, ocean.DefaultMultipathConfig(DefaultCarrierHz))
	k := b.RicianK(r)
	kdb := math.Inf(1)
	if !math.IsInf(k, 1) {
		kdb = 10 * math.Log10(k)
	}
	return Terms{
		SourceLevelDB:  b.SourceLevelDB,
		OneWayTLDB:     b.Env.TransmissionLoss(DefaultCarrierHz, r),
		NodeGainDB:     EffectiveGainDB(b.Design, DefaultCarrierHz, b.Orientation),
		NoiseLevelDB:   b.Env.NoiseLevel(DefaultCarrierHz, b.ChipRate),
		DiversityDB:    b.DiversityGainDB,
		SIPenaltyDB:    b.SIPenaltyDB,
		ToneSNRdB:      b.ToneSNRdB(r),
		RicianKdB:      kdb,
		PredictedBER:   b.BER(r),
		DelaySpreadSec: ocean.DelaySpread(arr),
	}
}
