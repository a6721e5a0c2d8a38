package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"vab/internal/faults"
	"vab/internal/mac"
	"vab/internal/node"
	"vab/internal/telemetry"
)

// Fleet is a multi-node deployment: one reader polling several battery-free
// nodes through their individual channel geometries, under the MAC layer's
// retry/liveness policy. It is the object a monitoring application holds —
// cmd/vabgw and examples/coastal are thin wrappers around it.
//
// Cycles execute as waves (see mac.Scheduler): SetWorkers widens the poll
// pool so a cycle's waveform rounds run concurrently, one worker per
// node. Every System owns its channel, RNG stream, scratch buffers and —
// via design cloning in NewFleet — its Van Atta array, so concurrent
// rounds share no mutable state and cycle output is bit-identical at any
// worker count.
type Fleet struct {
	sched   *mac.Scheduler
	systems map[byte]*System
	order   []byte // ascending node addresses

	// Link-quality accumulators across every decoded frame: corrected FEC
	// bits per delivered frame is the campaign's residual-BER proxy.
	// Atomic because concurrent wave polls all report through fleetTrx.
	frames    atomic.Int64
	corrected atomic.Int64
}

// NodePlacement positions one node of a fleet.
type NodePlacement struct {
	Addr        byte
	Range       float64 // m from the reader
	Orientation float64 // rad
	Depth       float64 // m; 0 → the system default
}

// NewFleet builds a fleet: one waveform-level System per placement, all
// sharing the environment and design from the base config (whose Range,
// Orientation, NodeAddr and NodeDepth fields are overridden per node).
func NewFleet(base SystemConfig, placements []NodePlacement, policy mac.PollPolicy) (*Fleet, error) {
	if len(placements) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one node")
	}
	f := &Fleet{systems: make(map[byte]*System)}
	var err error
	f.sched, err = mac.NewScheduler(fleetTrx{f}, policy)
	if err != nil {
		return nil, err
	}
	for i, p := range placements {
		if _, dup := f.systems[p.Addr]; dup {
			return nil, fmt.Errorf("core: duplicate node address %d", p.Addr)
		}
		cfg := base
		cfg.NodeAddr = p.Addr
		cfg.Range = p.Range
		cfg.Orientation = p.Orientation
		cfg.NodeDepth = p.Depth
		cfg.Seed = base.Seed + int64(i+1)*1009
		// Give each node its own design instance when the design supports
		// it: element-fault injection mutates the design's array, so a
		// shared instance would race under concurrent waves (and bleed one
		// node's dead elements into a neighbour's cached gain even
		// serially).
		if cd, ok := base.Design.(CloneableDesign); ok {
			cfg.Design = cd.CloneDesign()
		}
		s, err := NewSystem(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", p.Addr, err)
		}
		f.systems[p.Addr] = s
		f.order = append(f.order, p.Addr)
		f.sched.AddNode(p.Addr)
	}
	// Reports and readings are assembled in ascending address order — the
	// determinism contract's fixed output order — regardless of how the
	// placements were listed.
	sort.Slice(f.order, func(i, j int) bool { return f.order[i] < f.order[j] })
	return f, nil
}

// SetWorkers bounds the concurrent poll pool RunCycle fans each wave
// over: n <= 0 selects runtime.NumCPU(), 1 (the default) polls serially.
// Seeded cycle output is bit-identical at any width — only wall clock
// changes, from O(nodes) rounds per cycle to O(nodes/workers).
func (f *Fleet) SetWorkers(n int) { f.sched.SetWorkers(n) }

// fleetTrx adapts the per-node systems to the MAC scheduler: concurrent
// polls are safe because every poll touches only its own node's System
// (plus the fleet's atomic accumulators).
type fleetTrx struct{ f *Fleet }

// Poll implements mac.Transceiver: the scheduler snapshots the rate
// controller's command once per wave and the worker that owns the polled
// system applies it here — rate stepdown actuation without any shared
// read of the controller from inside a wave.
func (t fleetTrx) Poll(addr byte, chipRate float64) (mac.RoundResult, error) {
	s, ok := t.f.systems[addr]
	if !ok {
		return mac.RoundResult{}, fmt.Errorf("core: unknown node %d", addr)
	}
	if chipRate > 0 && chipRate != s.ChipRate() {
		if err := s.SetChipRate(chipRate); err != nil {
			return mac.RoundResult{}, err
		}
	}
	return t.poll(s)
}

// poll runs one waveform round against a node system and maps the result
// into MAC terms.
func (t fleetTrx) poll(s *System) (mac.RoundResult, error) {
	rep, err := s.Poll()
	if err != nil {
		return mac.RoundResult{}, err
	}
	if !rep.Rx.OK() {
		return mac.RoundResult{}, nil
	}
	t.f.frames.Add(1)
	t.f.corrected.Add(int64(rep.Rx.Corrected))
	return mac.RoundResult{OK: true, Payload: rep.Rx.Frame.Payload, SNRdB: rep.SNRdB()}, nil
}

// Instrument wires telemetry through every layer the fleet owns: the MAC
// scheduler's polling counters and each per-node system's round stage timers
// and receive-chain metrics. All systems share one registry, so counters
// aggregate fleet-wide. A nil registry is a no-op; call before RunCycle.
func (f *Fleet) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	f.sched.Instrument(reg)
	for _, addr := range f.order {
		f.systems[addr].Instrument(reg)
	}
}

// SetFaultEngine attaches one fault-injection engine to every node system
// in the fleet (nil detaches and heals). All systems share the engine:
// Plan is a pure function of the round index, so sharing is safe and keeps
// the whole fleet on one scenario clock.
func (f *Fleet) SetFaultEngine(e *faults.Engine) {
	for _, addr := range f.order {
		f.systems[addr].SetFaultEngine(e)
	}
}

// EnableRateAdaptation wires a rate controller through the stack: the
// scheduler feeds it per-cycle SNR/loss observations, and each poll
// rebuilds the polled node's PHY chain whenever the commanded rate moved —
// the closed loop behind SNR-triggered rate stepdown.
func (f *Fleet) EnableRateAdaptation(rc *mac.RateController) {
	f.sched.SetRateController(rc)
}

// LinkQuality returns the running totals of delivered frames and FEC
// corrections inside them — corrected/frames tracks how close delivered
// traffic sat to the FEC cliff.
func (f *Fleet) LinkQuality() (frames, corrected int64) {
	return f.frames.Load(), f.corrected.Load()
}

// Deploy charges every node for the given duration (the pre-campaign
// soak).
func (f *Fleet) Deploy(seconds float64) {
	for _, addr := range f.order {
		f.systems[addr].WakeNode(seconds)
	}
}

// FleetReading is one delivered sensor reading with link metadata.
type FleetReading struct {
	Addr    byte
	Reading node.Reading
	SNRdB   float64
}

// RunCycle polls every live node once (with the policy's retries) and
// returns the decoded readings in ascending address order. A node running
// the packed payload format (SystemConfig.SensorBatch > 1) contributes
// every reading its frame carried, oldest first, so one delivered frame
// can yield several FleetReadings.
func (f *Fleet) RunCycle() ([]FleetReading, mac.CycleReport, error) {
	rep, err := f.sched.RunCycle()
	if err != nil {
		return nil, rep, err
	}
	// One address→SNR pass up front: rescanning sched.Nodes() per
	// delivered payload made reading assembly O(N²) in fleet size.
	snr := make(map[byte]float64, len(f.order))
	for _, st := range f.sched.Nodes() {
		snr[st.Addr] = st.LastSNRdB
	}
	out := make([]FleetReading, 0, len(rep.Payloads))
	var scratch []node.Reading
	for _, addr := range f.order {
		payload, ok := rep.Payloads[addr]
		if !ok {
			continue
		}
		scratch, ok = node.AppendDecodedReadings(scratch[:0], payload)
		if !ok {
			continue
		}
		for _, rd := range scratch {
			out = append(out, FleetReading{Addr: addr, Reading: rd, SNRdB: snr[addr]})
		}
	}
	return out, rep, nil
}

// Nodes returns the MAC-layer bookkeeping per node.
func (f *Fleet) Nodes() []mac.NodeState { return f.sched.Nodes() }

// System returns the per-node system (nil for unknown addresses), for
// advanced access such as ranging rounds or commands.
func (f *Fleet) System(addr byte) *System { return f.systems[addr] }
