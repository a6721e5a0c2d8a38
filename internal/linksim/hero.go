package linksim

import (
	"math"
	"slices"

	"vab/internal/core"
	"vab/internal/mac"
	"vab/internal/telemetry"
)

// Hero links: the abstraction's online cross-check. Every cycle a small,
// deterministically chosen subset of the scheduled polls is *also* run at
// full waveform fidelity — a real core.System at the node's exact
// geometry, under the fleet's fault engine aligned to the same scenario
// clock — and the waveform outcome is scored against the calibrated cell
// the model drew from. Divergence is counted, histogrammed and exported
// through internal/telemetry, so the abstraction's validity is monitored
// continuously rather than assumed from an offline calibration run.

// heroZBudget is the SNR divergence budget: a hero check diverges when the
// mean waveform SNR sits more than this many standard errors from the
// cell's calibrated mean (see DESIGN.md, "Fidelity tiers").
const heroZBudget = 3.0

// heroRounds is the waveform rounds each hero check runs.
const heroRounds = 4

// HeroReport summarizes one cycle's hero-link cross-checks.
type HeroReport struct {
	Checks   int // hero links promoted this cycle
	Diverged int // checks outside the divergence budget
}

// heroMetrics instruments the cross-check. Zero value = noop.
type heroMetrics struct {
	checks   *telemetry.Counter
	diverged *telemetry.Counter
	zScore   *telemetry.Histogram
	pGap     *telemetry.Gauge
}

// heroChecker owns the waveform machinery the cross-check needs. Systems
// are built on demand per promoted link — hero counts are single-digit, so
// construction cost stays off the abstract tier's critical path complexity.
type heroChecker struct {
	design *core.VanAttaDesign
	envCfg core.SystemConfig
	met    heroMetrics
	picked []int32 // the last pick, reused across cycles
}

func newHeroChecker(f *Fleet) (*heroChecker, error) {
	env, err := EnvByName(f.cfg.Env)
	if err != nil {
		return nil, err
	}
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		return nil, err
	}
	return &heroChecker{
		design: design,
		envCfg: core.SystemConfig{Env: env, Design: design},
	}, nil
}

func (h *heroChecker) instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	h.met = heroMetrics{
		checks: reg.Counter("vab_linksim_hero_checks_total",
			"Hero links promoted to waveform fidelity."),
		diverged: reg.Counter("vab_linksim_hero_diverged_total",
			"Hero checks outside the divergence budget."),
		zScore: reg.Histogram("vab_linksim_hero_snr_z",
			"SNR z-score of hero waveform runs against the calibrated cell.",
			telemetry.LinearBuckets(-4, 1, 9)),
		pGap: reg.Gauge("vab_linksim_hero_delivery_gap",
			"Latest |waveform delivery fraction - model delivery probability|."),
	}
}

// pick selects which scheduled polls this cycle promotes: a seeded draw
// of positions in the cycle's schedule with rejection on duplicates — a
// pure function of (fleet seed, cycle) and the schedule, independent of
// worker count. It reads the schedule in place, so it runs before the
// scheduler's blocks compact the live list. The picks, in h.picked, are
// valid until the next pick.
func (h *heroChecker) pick(f *Fleet, sched mac.Schedule, cycle int) {
	n := sched.Len()
	want := min(f.cfg.HeroLinks, n)
	const heroDomain = 0x4865726f // hero draws, distinct from poll/placement streams
	st := newStream(mix(f.seedBase, heroDomain, uint64(cycle)))
	h.picked = h.picked[:0]
	for tries := 0; len(h.picked) < want && tries < 16*want; tries++ {
		node, probe := sched.At(int(st.next() % uint64(n)))
		if probe || slices.Contains(h.picked, node) {
			continue // probes are single-attempt oddballs; compare regular polls
		}
		h.picked = append(h.picked, node)
	}
}

// check runs the last pick's links at waveform fidelity and scores them.
func (h *heroChecker) check(f *Fleet, model *cycleModel, cycle int) (HeroReport, error) {
	rep := HeroReport{}
	for _, node := range h.picked {
		cfg := h.envCfg
		cfg.Range, cfg.Orientation = f.placement(node)
		var cell Cell
		model.resolve(&cell, f.table.Resolve(cfg.Range, cfg.Orientation))
		p := cell.PDeliver

		cfg.NodeAddr = byte(node%250) + 1
		cfg.Seed = int64(mix(f.seedBase, uint64(uint32(node)), uint64(cycle)) >> 1)
		cfg.Design = h.design.CloneDesign()
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return rep, err
		}
		if f.chaos != nil {
			sys.SetFaultEngine(f.chaos)
			// One scenario clock across tiers: the hero's rounds see the
			// faults the fleet's cycle does.
			sys.SetFaultRound(cycle)
		}
		if model.chipRate != sys.ChipRate() {
			// The hero link honours the rate controller's command, like
			// every waveform poll would.
			if err := sys.SetChipRate(model.chipRate); err != nil {
				return rep, err
			}
		}
		// The calibrator's soak and polls: the comparison targets the
		// channel, not harvest ramp-up.
		tally, err := soakAndPoll(sys, heroRounds)
		if err != nil {
			return rep, err
		}
		delivered := tally.delivered

		rep.Checks++
		h.met.checks.Inc()
		frac := float64(delivered) / float64(heroRounds)
		h.met.pGap.Set(math.Abs(frac - p))

		diverged := false
		// Delivery divergence: only extreme disagreement convicts — at
		// single-digit hero rounds the binomial noise floor is wide.
		if (p >= 0.9 && frac <= 0.25) || (p <= 0.1 && frac >= 0.75) {
			diverged = true
		}
		// SNR divergence: z-score of the waveform mean against the cell's
		// distribution, with the standard error of the hero sample.
		if delivered > 0 {
			mean := tally.snrSum / float64(delivered)
			se := cell.SNRStdDB / math.Sqrt(float64(delivered))
			if se < 0.5 {
				se = 0.5
			}
			z := (mean - (cell.SNRMeanDB + model.snrDelta)) / se
			h.met.zScore.Observe(z)
			if math.Abs(z) > heroZBudget {
				diverged = true
			}
		}
		if diverged {
			rep.Diverged++
			h.met.diverged.Inc()
		}
	}
	return rep, nil
}
