package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// preset builds one canonical fault at the given intensity. The canonical
// parameters are chosen so that intensity 1 visibly degrades a healthy
// mid-range link while intensity 0.25 is survivable with recovery on —
// the dynamic range the E11 chaos campaign sweeps.
type preset struct {
	name string
	help string
	mk   func(intensity float64) Fault
}

var presets = []preset{
	{
		name: "shrimp",
		help: "snapping-shrimp impulse trains: Poisson bursts, ~30 dB over ambient",
		mk: func(i float64) Fault {
			return Fault{
				Type: Impulse, Intensity: i,
				RatePerRound: 6, PowerDB: 30, BurstLenSec: 0.02,
			}
		},
	},
	{
		name: "shadowing",
		help: "bubble-cloud shadowing: time-varying excess attenuation, up to 6 dB one-way",
		mk: func(i float64) Fault {
			return Fault{
				Type: Shadowing, Intensity: i,
				AttenDB: 6, PeriodRounds: 12,
			}
		},
	},
	{
		name: "elements",
		help: "Van Atta element failures: up to half the array dead",
		mk: func(i float64) Fault {
			return Fault{
				Type: ElementFailure, Intensity: i,
				DeadFrac: 0.5,
			}
		},
	},
	{
		name: "brownout",
		help: "node supply collapses: forced harvester depletion, per-round probability",
		mk: func(i float64) Fault {
			return Fault{
				Type: Brownout, Intensity: i,
				OutageProb: 0.4,
			}
		},
	},
	{
		name: "clockstep",
		// 1250 ppm sits just past the demodulator's drift knee: ~1000 ppm
		// still decodes, ~2000 ppm is a dead link. Scaling intensity walks
		// the link across that knee instead of jumping off the cliff.
		help: "node oscillator step: up to +1250 ppm (cheap-RC class) while active",
		mk: func(i float64) Fault {
			return Fault{
				Type: ClockStep, Intensity: i,
				StepPPM: 1250,
			}
		},
	},
}

// chaosComponents lists the presets the composite "chaos" scenario layers
// together (every class at once — the E11 default).
var chaosComponents = []string{"shrimp", "shadowing", "elements", "brownout", "clockstep"}

// Presets returns "name — help" lines for every named fault preset plus
// the chaos composite, sorted by name: the CLI's -faults list output.
func Presets() []string {
	out := make([]string, 0, len(presets)+1)
	for _, p := range presets {
		out = append(out, fmt.Sprintf("%-10s %s", p.name, p.help))
	}
	out = append(out, fmt.Sprintf("%-10s every fault class layered together (%s)",
		"chaos", strings.Join(chaosComponents, "+")))
	sort.Strings(out)
	return out
}

func findPreset(name string) (preset, bool) {
	for _, p := range presets {
		if p.name == name {
			return p, true
		}
	}
	return preset{}, false
}

// Parse builds a Scenario from a spec string in the ParseTerms grammar;
// the composite name "chaos" expands to every class. Examples:
//
//	shrimp+shadowing
//	shrimp:0.5+brownout
//	chaos:0.25
//
// An empty spec returns the empty (inject-nothing) scenario.
func Parse(spec string, seed int64) (Scenario, error) {
	terms, err := ParseTerms(spec)
	if err != nil {
		return Scenario{}, err
	}
	if len(terms) == 0 {
		return Scenario{Name: "none", Seed: seed}, nil
	}
	sc := Scenario{Name: spec, Seed: seed}
	for _, t := range terms {
		if t.Name == "chaos" {
			for _, c := range chaosComponents {
				p, _ := findPreset(c)
				sc.Faults = append(sc.Faults, p.mk(t.Intensity))
			}
			continue
		}
		p, ok := findPreset(t.Name)
		if !ok {
			return Scenario{}, fmt.Errorf("faults: unknown preset %q (have %s and chaos)",
				t.Name, strings.Join(chaosComponents, ", "))
		}
		sc.Faults = append(sc.Faults, p.mk(t.Intensity))
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Term is one preset reference in a fault spec.
type Term struct {
	Name      string  // preset name, lower-cased
	Intensity float64 // in [0, 1]; 1 when the spec names none
}

// ParseTerms tokenizes a fault spec, the grammar this package's Parse and
// the network-chaos presets (netfaults.Parse) share: preset names joined
// by '+', each optionally scaled by ":<intensity>" in [0, 1] (default 1).
// Names are case-insensitive, and whitespace around a name or an
// intensity is ignored. A blank spec yields no terms. Resolving the names,
// the "chaos" composite included, is left to each preset table.
func ParseTerms(spec string) ([]Term, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	toks := strings.Split(spec, "+")
	terms := make([]Term, 0, len(toks))
	for _, tok := range toks {
		name, rest, found := strings.Cut(tok, ":")
		t := Term{Name: strings.ToLower(strings.TrimSpace(name)), Intensity: 1}
		if t.Name == "" {
			return nil, fmt.Errorf("faults: empty preset name in spec %q", spec)
		}
		if found {
			rest = strings.TrimSpace(rest)
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad intensity %q for %q: %v", rest, t.Name, err)
			}
			if !(v >= 0 && v <= 1) { // NaN fails too
				return nil, fmt.Errorf("faults: intensity %.3g for %q outside [0, 1]", v, t.Name)
			}
			t.Intensity = v
		}
		terms = append(terms, t)
	}
	return terms, nil
}

// Scale returns a copy of the scenario with every fault's intensity
// multiplied by s (clamped to [0, 1]): the knob the chaos campaign sweeps
// to trace degradation curves without re-parsing specs.
func (sc Scenario) Scale(s float64) Scenario {
	out := Scenario{Name: sc.Name, Seed: sc.Seed}
	out.Faults = make([]Fault, len(sc.Faults))
	copy(out.Faults, sc.Faults)
	for i := range out.Faults {
		v := out.Faults[i].Intensity * s
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out.Faults[i].Intensity = v
	}
	return out
}
