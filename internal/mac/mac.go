// Package mac implements the medium access layer of a VAB network: a
// reader-initiated polling protocol over the shared acoustic channel.
//
// Backscatter nodes cannot hear each other (their receivers only detect the
// strong reader downlink), so all coordination flows through the reader: it
// polls nodes one at a time, addressing each by its link-layer address, and
// retries lost rounds with bounded attempts.
//
// Scheduler is the one polling cycle of both fidelity tiers: the live
// list, the probe calendar, parallel blocks folded in schedule order and
// one rate-command snapshot per cycle. A Backend supplies the polls —
// core.Fleet runs a waveform System per node, linksim.Fleet draws from
// the calibrated link table — so the tiers differ only in how a poll's
// outcome is produced.
package mac

import (
	"fmt"
)

// PollPolicy tunes the polling scheduler.
type PollPolicy struct {
	// MaxRetries bounds per-node retransmissions within one cycle.
	MaxRetries int
	// DropAfter removes a node from the schedule after this many
	// consecutive failed cycles (0 = never drop). With Probation set the
	// node is quarantined instead of permanently removed.
	DropAfter int

	// Probation replaces permanent drops with quarantine: after DropAfter
	// silent cycles the node leaves the regular schedule but receives
	// single-attempt re-probes at exponentially backed-off intervals
	// (ProbeBackoffBase cycles, doubling up to ProbeBackoffMax). One
	// successful probe restores the node. A transient impairment — a
	// bubble cloud, a brownout while a mooring recharges — thereby costs
	// rounds, not the node; the one-way DropAfter removal remains for
	// operators who prefer it.
	Probation bool
	// ProbeBackoffBase is the first quarantine re-probe interval in
	// cycles (0 → 2).
	ProbeBackoffBase int
	// ProbeBackoffMax caps the re-probe interval in cycles (0 → 16).
	ProbeBackoffMax int
}

// DefaultPollPolicy matches the field campaign: two retries, nodes
// dropped after five silent cycles.
func DefaultPollPolicy() PollPolicy {
	return PollPolicy{MaxRetries: 2, DropAfter: 5}
}

// probeBase resolves the first re-probe interval.
func (p PollPolicy) probeBase() int {
	if p.ProbeBackoffBase <= 0 {
		return 2
	}
	return p.ProbeBackoffBase
}

// probeMax resolves the re-probe interval cap.
func (p PollPolicy) probeMax() int {
	if p.ProbeBackoffMax <= 0 {
		return 16
	}
	return p.ProbeBackoffMax
}

// Validate reports nonsensical policies.
func (p PollPolicy) Validate() error {
	if p.MaxRetries < 0 {
		return fmt.Errorf("mac: negative retries")
	}
	if p.DropAfter < 0 {
		return fmt.Errorf("mac: negative drop threshold")
	}
	if p.ProbeBackoffBase < 0 || p.ProbeBackoffMax < 0 {
		return fmt.Errorf("mac: negative probe backoff")
	}
	// Compare the resolved values: a base above the default cap would
	// calendar the first re-probe past ProbeHorizon, which sizes the wheel.
	if p.probeBase() > p.probeMax() {
		return fmt.Errorf("mac: probe backoff base %d exceeds max %d", p.probeBase(), p.probeMax())
	}
	return nil
}

// NodeState is one node's scheduler bookkeeping, as reports see it
// (NodeColumns.State materializes it).
type NodeState struct {
	Addr         byte
	Polls        int
	Successes    int
	Retries      int
	SilentCycles int
	Dropped      bool
	LastSNRdB    float64

	// Health is an EWMA of per-cycle delivery in [0, 1] (1 = every recent
	// cycle delivered). It is reported, never read by a decision.
	Health float64
	// Quarantined marks a node in probation: off the regular schedule,
	// awaiting a backed-off re-probe.
	Quarantined bool
	// QuarantineEntries counts how many times the node entered probation.
	QuarantineEntries int
}
