package ocean

import (
	"math"
	"math/cmplx"
)

// Arrival is one eigenray of the shallow-water waveguide: a delayed, scaled
// copy of the transmitted signal.
type Arrival struct {
	Delay          float64    // propagation delay in s
	Gain           complex128 // complex amplitude relative to 1 m reference
	SurfaceBounces int
	BottomBounces  int
}

// Geometry places a source and receiver in the water column at a horizontal
// range.
type Geometry struct {
	SourceDepth   float64 // m, positive down
	ReceiverDepth float64 // m
	Range         float64 // horizontal separation in m, > 0
}

// MultipathConfig tunes the image-method eigenray enumeration.
type MultipathConfig struct {
	MaxOrder    int     // maximum image order (bounce families), >= 0
	MinRelAmpDB float64 // drop arrivals this many dB below the strongest (positive number)
	FrequencyHz float64 // carrier frequency for absorption and boundary models
}

// DefaultMultipathConfig returns sensible defaults: 6 image orders and a
// 30 dB amplitude floor.
func DefaultMultipathConfig(fHz float64) MultipathConfig {
	return MultipathConfig{MaxOrder: 6, MinRelAmpDB: 30, FrequencyHz: fHz}
}

// Multipath enumerates the eigenrays between source and receiver using the
// method of images for an iso-velocity waveguide bounded by the pressure-
// release surface and the fluid bottom. Arrivals are returned sorted by
// delay, strongest-path-normalized to the configured amplitude floor.
//
// Amplitude model per ray: spherical spreading 1/L, absorption α(f)·L,
// boundary reflection coefficients per bounce evaluated at the ray's
// grazing angle, and a carrier-phase rotation e^{-j2πf·L/c}.
func (e *Environment) Multipath(g Geometry, cfg MultipathConfig) []Arrival {
	return e.MultipathAppend(nil, g, cfg)
}

// MultipathAppend is Multipath writing into dst's backing storage
// (truncated to dst[:0] first), so a caller that rebuilds the same link
// geometry every round reuses one arrival slice instead of allocating:
// after the first call whose capacity covers the enumeration, subsequent
// calls are allocation-free. The returned slice must replace dst.
func (e *Environment) MultipathAppend(dst []Arrival, g Geometry, cfg MultipathConfig) []Arrival {
	if g.Range <= 0 {
		panic("ocean: Multipath requires positive range")
	}
	c := e.MeanSoundSpeed()
	alphaDBperM := e.AbsorptionMid(cfg.FrequencyHz) / 1000
	h := e.Depth
	zs, zr, r := g.SourceDepth, g.ReceiverDepth, g.Range

	arrivals := dst[:0]
	add := func(dz float64, surf, bot int) {
		length := math.Hypot(r, dz)
		grazing := math.Atan2(math.Abs(dz), r)
		// Each eigenray spreads spherically (amplitude 1/L): the
		// environment's practical spreading exponent (k < 2) is the
		// *aggregate* waveguide law that emerges from summing the trapped
		// rays, so applying it per ray would double-count the trapping.
		amp := 1 / length
		amp *= math.Pow(10, -alphaDBperM*length/20)
		gain := complex(amp, 0)
		for i := 0; i < surf; i++ {
			gain *= e.SurfaceReflection(grazing, cfg.FrequencyHz)
		}
		for i := 0; i < bot; i++ {
			gain *= e.BottomReflection(grazing)
		}
		// Carrier phase accumulated along the path.
		gain *= cmplx.Rect(1, -2*math.Pi*cfg.FrequencyHz*length/c)
		arrivals = append(arrivals, Arrival{
			Delay:          length / c,
			Gain:           gain,
			SurfaceBounces: surf,
			BottomBounces:  bot,
		})
	}

	// Image families (see package docs): images of the source at
	// z = 2nh + zs with (|n|, |n|) surface/bottom bounces, and
	// z = 2nh − zs with (n−1 surface, n bottom) for n ≥ 1 or
	// (|n|+1 surface, |n| bottom) for n ≤ 0.
	for n := -cfg.MaxOrder; n <= cfg.MaxOrder; n++ {
		an := n
		if an < 0 {
			an = -an
		}
		// Family A: z_i = 2nh + zs.
		add(2*float64(n)*h+zs-zr, an, an)
		// Family B: z_i = 2nh − zs.
		if n >= 1 {
			add(2*float64(n)*h-zs-zr, n-1, n)
		} else {
			add(2*float64(n)*h-zs-zr, an+1, an)
		}
	}

	// Drop arrivals below the floor relative to the strongest.
	var maxAmp float64
	for _, a := range arrivals {
		if m := cmplx.Abs(a.Gain); m > maxAmp {
			maxAmp = m
		}
	}
	floor := maxAmp * math.Pow(10, -cfg.MinRelAmpDB/20)
	kept := arrivals[:0]
	for _, a := range arrivals {
		if cmplx.Abs(a.Gain) >= floor {
			kept = append(kept, a)
		}
	}
	// Insertion sort by delay: the enumeration yields a few dozen arrivals
	// at most, it allocates nothing (sort.Slice boxes its arguments), and —
	// being stable — it gives ties a deterministic order independent of the
	// sort library's internals.
	for i := 1; i < len(kept); i++ {
		a := kept[i]
		j := i - 1
		for j >= 0 && kept[j].Delay > a.Delay {
			kept[j+1] = kept[j]
			j--
		}
		kept[j+1] = a
	}
	return kept
}

// DelaySpread returns the RMS delay spread in seconds of a set of arrivals,
// power-weighted about the mean delay. It determines how much inter-symbol
// interference the PHY faces at a given bit rate.
func DelaySpread(arrivals []Arrival) float64 {
	var p, mean float64
	for _, a := range arrivals {
		w := cmplx.Abs(a.Gain)
		w *= w
		p += w
		mean += w * a.Delay
	}
	if p == 0 {
		return 0
	}
	mean /= p
	var v float64
	for _, a := range arrivals {
		w := cmplx.Abs(a.Gain)
		w *= w
		d := a.Delay - mean
		v += w * d * d
	}
	return math.Sqrt(v / p)
}

// RicianK returns the Rician K-factor (dB) implied by a set of arrivals:
// the power ratio of the strongest (treated as specular) component to the
// sum of all others. Infinite when only one arrival exists.
func RicianK(arrivals []Arrival) float64 {
	if len(arrivals) == 0 {
		return math.Inf(1)
	}
	var best, rest float64
	for _, a := range arrivals {
		w := cmplx.Abs(a.Gain)
		w *= w
		if w > best {
			rest += best
			best = w
		} else {
			rest += w
		}
	}
	if rest == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(best/rest)
}
