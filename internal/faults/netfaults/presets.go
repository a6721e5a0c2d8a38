package netfaults

import (
	"fmt"
	"strings"

	"vab/internal/faults"
)

// Canonical profiles. Magnitudes are chosen so that intensity 1 visibly
// hurts a gateway session within a few hundred operations while intensity
// 0.25 is survivable with resume on — the dynamic range the E14 campaign
// sweeps.
var presets = []struct {
	name string
	help string
	prof Profile
}{
	{
		name: "blips",
		help: "connection blips: per-op drop probability, clean bytes otherwise",
		prof: Profile{Name: "blips", DropPerOp: 0.02},
	},
	{
		name: "congested",
		help: "congested backhaul: per-op latency plus occasional long stalls",
		prof: Profile{Name: "congested", LatencyMs: 2, StallPerOp: 0.01, StallMs: 150},
	},
	{
		name: "lossy",
		help: "lossy link: bit corruption and partial writes that tear frames",
		prof: Profile{Name: "lossy", CorruptPerOp: 0.01, PartialPerOp: 0.005},
	},
}

// chaosComponents lists the presets the composite "chaos" profile layers
// together.
var chaosComponents = []string{"blips", "congested", "lossy"}

// merge layers b onto a: probabilities add (clamped at 1), magnitudes take
// the max — layering two storms never calms either.
func merge(a, b Profile) Profile {
	addClamp := func(x, y float64) float64 {
		v := x + y
		if v > 1 {
			return 1
		}
		return v
	}
	maxOf := func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	}
	return Profile{
		Name:         a.Name + "+" + b.Name,
		DropPerOp:    addClamp(a.DropPerOp, b.DropPerOp),
		StallPerOp:   addClamp(a.StallPerOp, b.StallPerOp),
		StallMs:      maxOf(a.StallMs, b.StallMs),
		LatencyMs:    maxOf(a.LatencyMs, b.LatencyMs),
		PartialPerOp: addClamp(a.PartialPerOp, b.PartialPerOp),
		CorruptPerOp: addClamp(a.CorruptPerOp, b.CorruptPerOp),
	}
}

// Parse builds a Profile from a spec string in the faults.ParseTerms
// grammar, the one faults.Parse reads; the composite "chaos" expands to
// every class. Examples:
//
//	blips
//	blips:0.5+lossy
//	chaos:0.25
//
// An empty spec returns the inject-nothing profile.
func Parse(spec string) (Profile, error) {
	terms, err := faults.ParseTerms(spec)
	if err != nil {
		return Profile{}, err
	}
	if len(terms) == 0 {
		return Profile{Name: "none"}, nil
	}
	var out Profile
	for i, t := range terms {
		var prof Profile
		switch {
		case t.Name == "chaos":
			for _, comp := range chaosComponents {
				p, _ := lookup(comp)
				if prof.Name == "" {
					prof = p
				} else {
					prof = merge(prof, p)
				}
			}
			prof.Name = "chaos"
		default:
			p, ok := lookup(t.Name)
			if !ok {
				return Profile{}, fmt.Errorf("netfaults: unknown preset %q (have blips, congested, lossy, chaos)", t.Name)
			}
			prof = p
		}
		if t.Intensity != 1 {
			prof = prof.Scale(t.Intensity)
		}
		if i == 0 {
			out = prof
		} else {
			out = merge(out, prof)
		}
	}
	out.Name = strings.TrimSpace(spec)
	return out, nil
}

func lookup(name string) (Profile, bool) {
	for _, p := range presets {
		if p.name == name {
			return p.prof, true
		}
	}
	return Profile{}, false
}

// Chaos returns the composite profile at the given intensity — the E14
// campaign's axis.
func Chaos(intensity float64) Profile {
	p, _ := Parse("chaos")
	if intensity != 1 {
		p = p.Scale(intensity)
	}
	p.Name = fmt.Sprintf("chaos:%g", intensity)
	return p
}
