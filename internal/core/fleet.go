package core

import (
	"cmp"
	"fmt"
	"slices"
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
// The cycle is mac.Scheduler's; the Fleet is its waveform backend, one
// System per node, polled in blocks of one. SetWorkers widens the pool so
// a cycle's waveform rounds run concurrently, each node's retries inline
// in the worker that owns it. Every System owns its channel, RNG stream,
// scratch buffers and — via design cloning in NewFleet — its Van Atta
// array, so concurrent rounds share no mutable state and cycle output is
// bit-identical at any worker count.
type Fleet struct {
	sched   *mac.Scheduler
	cols    *mac.NodeColumns // indexed like systems, statistics attached
	systems []*System        // by node index: ascending address

	// Per node, the payload the running cycle delivered (nil if none):
	// written by the worker that polls the node, read after the cycle.
	payloads [][]byte
	chipRate float64 // the running cycle's rate command (0 = none)

	// Link-quality totals across every decoded frame: corrected FEC bits
	// per delivered frame is the campaign's residual-BER proxy. The
	// running cycle's workers add their delivered frames' corrections to
	// cycleCorrected, which joins the totals only if the cycle succeeds.
	frames, corrected int64
	cycleCorrected    atomic.Int64
}

// NodePlacement positions one node of a fleet.
type NodePlacement struct {
	Addr        byte
	Range       float64 // m from the reader
	Orientation float64 // rad
}

// NewFleet builds a fleet: one waveform-level System per placement, all
// sharing the environment, design and depths from the base config (whose
// Range, Orientation and NodeAddr fields are overridden per node).
func NewFleet(base SystemConfig, placements []NodePlacement, policy mac.PollPolicy) (*Fleet, error) {
	if len(placements) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one node")
	}
	f := &Fleet{
		cols:     mac.NewNodeColumns(len(placements)),
		systems:  make([]*System, 0, len(placements)),
		payloads: make([][]byte, len(placements)),
	}
	// Nodes and the readings RunCycle returns report the statistics.
	f.cols.Stats = mac.NewNodeStats(len(placements))
	for i, p := range placements {
		cfg := base
		cfg.NodeAddr = p.Addr
		cfg.Range = p.Range
		cfg.Orientation = p.Orientation
		cfg.Seed = base.Seed + int64(i+1)*1009
		// Give each node its own design instance when the design supports
		// it: element-fault injection mutates the design's array, so a
		// shared instance would race under concurrent polls (and bleed one
		// node's dead elements into a neighbour's cached gain even
		// serially).
		if cd, ok := base.Design.(CloneableDesign); ok {
			cfg.Design = cd.CloneDesign()
		}
		s, err := NewSystem(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", p.Addr, err)
		}
		f.systems = append(f.systems, s)
	}
	// Node indices follow ascending address — the determinism contract's
	// fixed output order — regardless of how the placements were listed.
	slices.SortFunc(f.systems, func(a, b *System) int { return cmp.Compare(a.cfg.NodeAddr, b.cfg.NodeAddr) })
	for i, s := range f.systems {
		f.cols.Stats.Addr[i] = s.cfg.NodeAddr
		if i > 0 && f.cols.Stats.Addr[i-1] == s.cfg.NodeAddr {
			return nil, fmt.Errorf("core: duplicate node address %d", s.cfg.NodeAddr)
		}
	}
	var err error
	f.sched, err = mac.NewScheduler(fleetBackend{f}, f.cols, 1, policy)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SetWorkers bounds the concurrent poll pool RunCycle fans each cycle's
// polls over: n <= 0 selects runtime.NumCPU(), 1 (the default) polls
// serially. Seeded cycle output is bit-identical at any width — only wall
// clock changes, from O(nodes) rounds per cycle to O(nodes/workers).
func (f *Fleet) SetWorkers(n int) { f.sched.SetWorkers(n) }

// Close releases the persistent poll pool a parallel cycle starts. The
// fleet remains usable, so Close is safe to defer as soon as it is built.
func (f *Fleet) Close() { f.sched.Close() }

// fleetBackend adapts the per-node systems to the MAC scheduler:
// concurrent draws are safe because every poll touches only its own node's
// System and payload slot.
type fleetBackend struct{ f *Fleet }

// BeginCycle records the cycle's rate command for the workers.
func (b fleetBackend) BeginCycle(_ int, chipRate float64, _ mac.Schedule) error {
	b.f.chipRate = chipRate
	return nil
}

// Draw runs each poll's waveform rounds, up to its attempt budget, in the
// worker that owns the node. The worker applies the cycle's rate command
// to its system first, so every attempt runs at the snapshot and no poll
// reads the controller.
func (b fleetBackend) Draw(c *mac.Chunk) error {
	f := b.f
	for _, p := range c.Polls {
		s := f.systems[p.Node]
		if f.chipRate > 0 && f.chipRate != s.ChipRate() {
			if err := s.SetChipRate(f.chipRate); err != nil {
				return fmt.Errorf("core: node %d: %w", s.cfg.NodeAddr, err)
			}
		}
		var o mac.Outcome
		for o.Attempts < p.Attempts && !o.Delivered {
			rep, err := s.Poll()
			if err != nil {
				return fmt.Errorf("core: node %d: %w", s.cfg.NodeAddr, err)
			}
			o.Attempts++
			if rep.Rx.OK() {
				o.Delivered, o.SNRdB = true, rep.SNRdB()
				f.payloads[p.Node] = rep.Rx.Frame.Payload
				f.cycleCorrected.Add(int64(rep.Rx.Corrected))
			}
		}
		c.Fold(&o)
	}
	return nil
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
	for _, s := range f.systems {
		s.Instrument(reg)
	}
}

// SetFaultEngine attaches one fault-injection engine to every node system
// in the fleet (nil detaches and heals). All systems share the engine:
// Plan is a pure function of the round index, so sharing is safe and keeps
// the whole fleet on one scenario clock.
func (f *Fleet) SetFaultEngine(e *faults.Engine) {
	for _, s := range f.systems {
		s.SetFaultEngine(e)
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
	return f.frames, f.corrected
}

// Deploy charges every node for the given duration (the pre-campaign
// soak).
func (f *Fleet) Deploy(seconds float64) {
	for _, s := range f.systems {
		s.WakeNode(seconds)
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
	clear(f.payloads)
	f.cycleCorrected.Store(0)
	rep, err := f.sched.RunCycle()
	if err != nil {
		return nil, rep, err
	}
	f.frames += int64(rep.Delivered)
	f.corrected += f.cycleCorrected.Load()
	out := make([]FleetReading, 0, rep.Delivered)
	var scratch []node.Reading
	for i, payload := range f.payloads {
		if payload == nil {
			continue
		}
		var ok bool
		scratch, ok = node.AppendDecodedReadings(scratch[:0], payload)
		if !ok {
			continue
		}
		for _, rd := range scratch {
			out = append(out, FleetReading{Addr: f.cols.Stats.Addr[i], Reading: rd, SNRdB: f.cols.Stats.LastSNRdB[i]})
		}
	}
	return out, rep, nil
}

// Nodes returns the MAC-layer bookkeeping per node, in ascending address
// order.
func (f *Fleet) Nodes() []mac.NodeState {
	out := make([]mac.NodeState, f.cols.Len())
	for i := range out {
		out[i] = f.cols.State(i)
	}
	return out
}

// System returns the per-node system (nil for unknown addresses), for
// advanced access such as ranging rounds or commands.
func (f *Fleet) System(addr byte) *System {
	if i, ok := slices.BinarySearch(f.cols.Stats.Addr, addr); ok {
		return f.systems[i]
	}
	return nil
}
