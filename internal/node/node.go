// Package node models the battery-free VAB backscatter node: its
// query-response state machine, the energy harvester that powers it from
// the reader's own carrier, the microwatt-level power ledger of its
// components, and the synthetic sensors it samples.
//
// A node owns a Van Atta array (vanatta), switches its reflection state
// through the link-layer codec (link) and the subcarrier modulator (phy),
// and is driven by downlink command frames decoded with the envelope
// detector. Everything the node does must fit the harvested power budget;
// the Harvester and PowerBudget types make that constraint explicit and
// testable.
package node

import (
	"fmt"
	"math"

	"vab/internal/link"
	"vab/internal/phy"
)

// PowerBudget itemizes the node's power draw per state, in watts. The
// defaults follow the component classes reported for underwater backscatter
// prototypes (nano-power comparators, sub-µW oscillators, analog switches).
type PowerBudget struct {
	Sleep       float64 // retention + leakage
	Listen      float64 // envelope detector + wake comparator
	Decode      float64 // command decoding logic
	Backscatter float64 // switch driver + subcarrier oscillator + encoder
}

// DefaultPowerBudget returns the reference budget used in the paper-style
// power table: a few µW idle, tens of µW while actively backscattering.
func DefaultPowerBudget() PowerBudget {
	return PowerBudget{
		Sleep:       0.5e-6,
		Listen:      3e-6,
		Decode:      20e-6,
		Backscatter: 40e-6,
	}
}

// Harvester models the node's energy storage: incident acoustic power is
// rectified into a storage capacitor; node activity drains it.
type Harvester struct {
	// ApertureM2 is the effective acoustic collection area of the array.
	ApertureM2 float64
	// Efficiency is the acoustic→stored-charge conversion efficiency
	// (piezo coupling × rectifier), in (0, 1).
	Efficiency float64
	// CapacitanceF and MaxVoltage bound the storage reservoir.
	CapacitanceF float64
	MaxVoltage   float64
	// TurnOnVoltage is the minimum rail for any activity beyond sleeping.
	TurnOnVoltage float64

	// BatteryBacked floats the reservoir from a small primary cell: the
	// rail never drops below turn-on, and the deficit is drawn from the
	// battery. Long-range deployments run
	// battery-backed — beyond roughly a hundred meters the harvested
	// carrier no longer covers even the sleep current — while the
	// harvesting experiments run without it.
	BatteryBacked bool

	voltage float64
}

// DefaultHarvester returns storage sized like the prototype nodes: a 100 µF
// reservoir charged to at most 5 V, operational above 2.2 V.
func DefaultHarvester() *Harvester {
	return &Harvester{
		ApertureM2:    0.02,
		Efficiency:    0.25,
		CapacitanceF:  100e-6,
		MaxVoltage:    5.0,
		TurnOnVoltage: 2.2,
	}
}

// Validate reports whether the harvester parameters are physical.
func (h *Harvester) Validate() error {
	switch {
	case h.ApertureM2 <= 0:
		return fmt.Errorf("node: aperture %.3g m² must be positive", h.ApertureM2)
	case h.Efficiency <= 0 || h.Efficiency > 1:
		return fmt.Errorf("node: efficiency %.3g outside (0, 1]", h.Efficiency)
	case h.CapacitanceF <= 0:
		return fmt.Errorf("node: capacitance %.3g F must be positive", h.CapacitanceF)
	case h.MaxVoltage <= 0 || h.TurnOnVoltage <= 0 || h.TurnOnVoltage > h.MaxVoltage:
		return fmt.Errorf("node: voltage rails (%.2f, %.2f) invalid", h.TurnOnVoltage, h.MaxVoltage)
	}
	return nil
}

// StoredEnergy returns the energy in the reservoir, ½CV².
func (h *Harvester) StoredEnergy() float64 {
	return 0.5 * h.CapacitanceF * h.voltage * h.voltage
}

// Operational reports whether the rail is above turn-on.
func (h *Harvester) Operational() bool { return h.voltage >= h.TurnOnVoltage }

// HarvestablePower returns the electrical power available from an incident
// pressure amplitude (Pa RMS) in water with characteristic impedance
// rhoC (kg/m²s): intensity p²/ρc collected over the aperture at the
// conversion efficiency.
func (h *Harvester) HarvestablePower(pressurePa, rhoC float64) float64 {
	if pressurePa <= 0 || rhoC <= 0 {
		return 0
	}
	return pressurePa * pressurePa / rhoC * h.ApertureM2 * h.Efficiency
}

// Step advances the reservoir by dt seconds with the given input power and
// load power (both watts). It returns the actually expended load energy —
// less than load·dt if the rail collapses below turn-on mid-interval.
func (h *Harvester) Step(inputW, loadW, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	eIn := inputW * dt
	eLoad := loadW * dt
	e := h.StoredEnergy() + eIn
	spent := eLoad
	if eLoad > e {
		spent = e
		e = 0
	} else {
		e -= eLoad
	}
	v := math.Sqrt(2 * e / h.CapacitanceF)
	if v > h.MaxVoltage {
		v = h.MaxVoltage // shunt regulator clamps overcharge
	}
	if h.BatteryBacked && v < h.TurnOnVoltage {
		// The battery tops the rail up and covers any load the capacitor
		// couldn't.
		spent = eLoad
		v = h.TurnOnVoltage
	}
	h.voltage = v
	return spent
}

// Deplete collapses the reservoir to 0 V immediately: the fault-injection
// hook for supply brownouts (a shorted rail, a regulator latch-up, a cold
// capacitor). Battery backing does not soften the collapse itself — the
// next Step refills a battery-backed node back to turn-on, modeling the
// recovery time of one charge interval.
func (h *Harvester) Deplete() { h.voltage = 0 }

// State enumerates the node FSM.
type State int

// FSM states.
const (
	StateSleep State = iota
	StateListen
	StateDecode
	StateBackscatter
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateListen:
		return "listen"
	case StateDecode:
		return "decode"
	case StateBackscatter:
		return "backscatter"
	default:
		return "invalid"
	}
}

// Stats counts node activity for the power-budget experiment.
type Stats struct {
	QueriesHeard    int
	QueriesMine     int
	FramesReturned  int
	DecodeFailures  int
	CommandsApplied int
	BrownOuts       int     // responses skipped for lack of energy
	EnergySpent     float64 // J
	EnergyHarvested float64 // J
}

// Config assembles a node.
type Config struct {
	Addr    byte
	Codec   link.Codec
	PHY     phy.Params
	Budget  PowerBudget
	Harvest *Harvester
	Sensor  Sensor
}

// Node is the protocol state machine. It is synchronous: the surrounding
// simulation calls HandleQuery/Elapse as the channel delivers waveforms.
type Node struct {
	cfg   Config
	mod   *phy.Modulator
	state State
	seq   byte
	stats Stats

	// gammaBuf holds the last response's reflection waveform, reused by
	// the next: a returned waveform is valid until the node responds again.
	gammaBuf []float64

	clock          float64 // elapsed seconds, advanced by Harvest
	reportInterval float64 // minimum seconds between responses (0 = every poll)
	muteUntil      float64 // node stays silent until this clock value
	lastReport     float64 // clock value of the last response
}

// New validates the configuration and builds a node in the sleep state.
func New(cfg Config) (*Node, error) {
	if cfg.Harvest == nil {
		return nil, fmt.Errorf("node: harvester required")
	}
	if err := cfg.Harvest.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sensor == nil {
		return nil, fmt.Errorf("node: sensor required")
	}
	mod, err := phy.NewModulator(cfg.PHY)
	if err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, mod: mod, state: StateSleep}, nil
}

// InjectBrownout forcibly depletes the reservoir and drops the node into
// the sleep state: the deterministic fault-injection entry point. The node
// stays silent until the next charge interval restores the rail (which,
// for battery-backed nodes, is the next Harvest/Step call).
func (n *Node) InjectBrownout() {
	n.cfg.Harvest.Deplete()
	n.state = StateSleep
}

// SetClockPPM re-tunes the node oscillator's frequency error mid-run (a
// temperature transient, or a fault-injected clock step) by rebuilding the
// modulator at the new numerology. A no-op when ppm already matches.
func (n *Node) SetClockPPM(ppm float64) error {
	if n.cfg.PHY.ClockPPM == ppm {
		return nil
	}
	p := n.cfg.PHY
	p.ClockPPM = ppm
	mod, err := phy.NewModulator(p)
	if err != nil {
		return fmt.Errorf("node: clock step to %+.0f ppm: %w", ppm, err)
	}
	n.cfg.PHY = p
	n.mod = mod
	return nil
}

// SetChipRate rebuilds the node modulator at a new chip rate — the node
// half of a reader-commanded rate stepdown. The rate must satisfy the phy
// numerology rules for the configured sample rate. A no-op when the rate
// already matches.
func (n *Node) SetChipRate(rate float64) error {
	if n.cfg.PHY.ChipRate == rate {
		return nil
	}
	p := n.cfg.PHY
	p.ChipRate = rate
	mod, err := phy.NewModulator(p)
	if err != nil {
		return fmt.Errorf("node: chip rate %.0f: %w", rate, err)
	}
	n.cfg.PHY = p
	n.mod = mod
	return nil
}

// State returns the FSM state.
func (n *Node) State() State { return n.state }

// Harvest charges the node from an incident carrier for dt seconds
// (pressure in Pa RMS at the node, rhoC the medium impedance). While the
// rail is below turn-on the node draws only sleep (leakage) power; once
// operational it listens. The interval is integrated in sub-steps so the
// state can flip mid-way (waking up, or browning out when the load exceeds
// the harvest).
func (n *Node) Harvest(pressurePa, rhoC, dt float64) {
	in := n.cfg.Harvest.HarvestablePower(pressurePa, rhoC)
	n.clock += dt
	const maxStep = 10.0 // seconds
	for dt > 0 {
		step := dt
		if step > maxStep {
			step = maxStep
		}
		dt -= step
		load := n.cfg.Budget.Sleep
		if n.cfg.Harvest.Operational() {
			load = n.cfg.Budget.Listen
		}
		n.stats.EnergyHarvested += in * step
		n.stats.EnergySpent += n.cfg.Harvest.Step(in, load, step)
		if n.cfg.Harvest.Operational() {
			if n.state == StateSleep {
				n.state = StateListen
			}
		} else {
			n.state = StateSleep
		}
	}
}

// HandleQuery processes a decoded downlink frame. When the query addresses
// this node (or broadcast) and the reservoir holds enough energy for a full
// response, it returns the reflection waveform γ(t) of the response burst.
// A nil waveform with nil error means the query was for someone else or the
// node stayed silent. The waveform is the node's reused buffer, valid until
// its next response.
func (n *Node) HandleQuery(f *link.Frame) ([]float64, error) {
	if f == nil {
		return nil, fmt.Errorf("node: nil frame")
	}
	if !n.cfg.Harvest.Operational() {
		n.state = StateSleep
		n.stats.BrownOuts++
		return nil, nil
	}
	if n.Muted() {
		return nil, nil
	}
	// Commanded reporting interval: decline polls that arrive sooner than
	// the configured period since the last response — the operator's knob
	// for stretching a node's energy across a long deployment.
	if n.reportInterval > 0 && n.stats.FramesReturned > 0 &&
		n.clock < n.lastReport+n.reportInterval {
		return nil, nil
	}
	n.stats.QueriesHeard++
	if f.Type != link.FrameQuery {
		return nil, nil
	}
	if f.Addr != n.cfg.Addr && f.Addr != link.BroadcastAddr {
		return nil, nil
	}
	n.stats.QueriesMine++
	n.state = StateDecode

	payload := n.cfg.Sensor.Read()
	resp := &link.Frame{Type: link.FrameData, Addr: n.cfg.Addr, Seq: n.seq, Payload: payload}
	n.seq++
	chips, err := n.cfg.Codec.EncodeFrame(resp)
	if err != nil {
		n.stats.DecodeFailures++
		return nil, fmt.Errorf("node: encode response: %w", err)
	}
	// Energy check: the burst takes len/chiprate seconds at backscatter
	// power plus decode overhead.
	burstSec := float64(n.mod.BurstSamples(len(chips))) / n.cfg.PHY.SampleRate
	needed := n.cfg.Budget.Backscatter*burstSec + n.cfg.Budget.Decode*0.01
	if n.cfg.Harvest.StoredEnergy() < needed {
		n.stats.BrownOuts++
		n.state = StateListen
		return nil, nil
	}
	gamma, err := n.mod.GammaWaveformInto(n.gammaBuf, chips)
	if err != nil {
		return nil, fmt.Errorf("node: modulate response: %w", err)
	}
	n.gammaBuf = gamma
	n.state = StateBackscatter
	n.stats.EnergySpent += n.cfg.Harvest.Step(0, needed/burstSec, burstSec)
	n.stats.FramesReturned++
	n.lastReport = n.clock
	n.state = StateListen
	return gamma, nil
}

// Sensor produces payload bytes on demand.
type Sensor interface {
	// Read returns the next sensor sample encoded as frame payload.
	Read() []byte
}
