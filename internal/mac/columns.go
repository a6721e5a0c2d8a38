package mac

// Decision-phase fold state, exported.
//
// RunCycle folds poll outcomes into per-node bookkeeping — silent-cycle
// counting, probation entry/exit with backed-off re-probes, permanent
// drops. Those transitions are the MAC layer's *semantics*, whichever
// Backend produced the outcome, so they live here once, over NodeColumns
// indexed by dense node index. They are exported because reports and the
// benchmark ladder read and drive them directly.
//
// The columns are struct-of-arrays because of the abstract tier's scale:
// folding through one ~100-byte struct per node would drag two cache lines
// per node through a million-node cycle. NodeColumns holds only the
// liveness columns the fold and the decision phase read: silent-cycle
// count, liveness flags, probe schedule and quarantine entry cycle (the
// recovery-latency histogram's input), 17 bytes a node. The per-node
// statistics reports materialize — health EWMA, cumulative counters, last
// SNR, address — live in a NodeStats an owner attaches only when it
// reports them (core.Fleet does; the million-node abstract tier does not).
// No decision reads a statistic, so a schedule is the same with or
// without them. State materializes one node as a NodeState for reports.
//
// Counters are int32: a single node would need 2³¹ polls to overflow —
// about 68 years of one-second cycles — while the narrower columns keep a
// million-node fleet's liveness state inside 17 MB.

// LivenessChange reports the transition FoldPollFailureAt applied to a node.
type LivenessChange int

// Liveness transitions, in increasing severity.
const (
	// LivenessNone: the node stays in the regular schedule.
	LivenessNone LivenessChange = iota
	// LivenessQuarantined: the node entered probation (Probation policy).
	LivenessQuarantined
	// LivenessDropped: the node was permanently removed (DropAfter policy).
	LivenessDropped
)

// Liveness flag bits of NodeColumns.Flags.
const (
	// FlagQuarantined marks a node in probation (NodeState.Quarantined).
	FlagQuarantined uint8 = 1 << iota
	// FlagDropped marks a permanently removed node (NodeState.Dropped).
	FlagDropped
)

// healthAlpha is the EWMA coefficient of the per-node health score.
const healthAlpha = 0.25

// foldHealth folds one cycle outcome into a health score.
func foldHealth(h float64, delivered bool) float64 {
	outcome := 0.0
	if delivered {
		outcome = 1
	}
	return (1-healthAlpha)*h + healthAlpha*outcome
}

// NodeColumns holds per-node scheduler bookkeeping as struct-of-arrays,
// indexed by a dense node index the owner assigns.
type NodeColumns struct {
	// Liveness columns: read or written by the fold-phase transitions and
	// the decision phase's liveness scan.
	SilentCycles  []int32 // consecutive failed cycles
	Flags         []uint8 // FlagQuarantined | FlagDropped
	ProbeInterval []int32 // current re-probe backoff, cycles
	NextProbe     []int32 // cycle index of the next re-probe
	QuarantinedAt []int32 // cycle of the latest quarantine entry

	// Stats, when attached, receives every fold's statistics; nil skips
	// them.
	Stats *NodeStats
}

// NodeStats holds the per-node statistics reports materialize, as
// struct-of-arrays indexed like the NodeColumns they are attached to.
// Nothing in a cycle's decisions reads them.
type NodeStats struct {
	Health            []float64 // delivery EWMA in [0, 1] (NodeState.Health)
	Polls             []int32
	Successes         []int32
	Retries           []int32
	QuarantineEntries []int32
	LastSNRdB         []float64
	Addr              []byte // left 0 for the owner to assign
}

// NewNodeColumns allocates liveness columns for n nodes, each initialized
// as a freshly added node, with no statistics attached.
func NewNodeColumns(n int) *NodeColumns {
	return &NodeColumns{
		SilentCycles:  make([]int32, n),
		Flags:         make([]uint8, n),
		ProbeInterval: make([]int32, n),
		NextProbe:     make([]int32, n),
		QuarantinedAt: make([]int32, n),
	}
}

// NewNodeStats allocates statistics for n nodes, each initialized as a
// freshly added node: health 1, everything else zero.
func NewNodeStats(n int) *NodeStats {
	st := &NodeStats{
		Health:            make([]float64, n),
		Polls:             make([]int32, n),
		Successes:         make([]int32, n),
		Retries:           make([]int32, n),
		QuarantineEntries: make([]int32, n),
		LastSNRdB:         make([]float64, n),
		Addr:              make([]byte, n),
	}
	for i := range st.Health {
		st.Health[i] = 1
	}
	return st
}

// Len returns the node count.
func (c *NodeColumns) Len() int { return len(c.Flags) }

// Live reports whether node i is on the regular schedule (neither
// quarantined nor dropped).
func (c *NodeColumns) Live(i int) bool { return c.Flags[i] == 0 }

// Quarantined reports whether node i is in probation.
func (c *NodeColumns) Quarantined(i int) bool { return c.Flags[i]&FlagQuarantined != 0 }

// FoldDeliveredAt folds a delivered poll (or a restoring probe's
// successful round) into node i: the silent-cycle count resets, and with
// statistics attached, success and SNR accounting plus the health EWMA.
// Quarantine exit for probes is a separate step — see RestoreAt.
func (c *NodeColumns) FoldDeliveredAt(i int, snrDB float64) {
	c.SilentCycles[i] = 0
	if st := c.Stats; st != nil {
		st.Successes[i]++
		st.LastSNRdB[i] = snrDB
		st.Health[i] = foldHealth(st.Health[i], true)
	}
}

// RestoreAt exits quarantine after a successful re-probe and returns the
// recovery latency in cycles (1 = restored by the first probe after
// entry), the value the recovery-latency histogram records.
func (c *NodeColumns) RestoreAt(i, cycle int) int {
	c.Flags[i] &^= FlagQuarantined
	return cycle - int(c.QuarantinedAt[i]) + 1
}

// FoldProbeFailureAt folds a failed quarantine re-probe: the re-probe
// backoff doubles up to the policy cap, and with statistics attached the
// health EWMA decays. Probes
// deliberately skip the retry budget — a node that is still down should
// cost the cycle as little airtime as possible.
func (p PollPolicy) FoldProbeFailureAt(c *NodeColumns, i, cycle int) {
	if st := c.Stats; st != nil {
		st.Health[i] = foldHealth(st.Health[i], false)
	}
	iv := c.ProbeInterval[i] * 2
	if max := int32(p.probeMax()); iv > max {
		iv = max
	}
	c.ProbeInterval[i] = iv
	c.NextProbe[i] = int32(cycle) + iv
}

// FoldPollFailureAt folds a poll whose retry budget is exhausted: the
// silent cycle is counted and the liveness policy applied — quarantine
// (Probation) or permanent drop once DropAfter consecutive silent cycles
// accumulate. The caller owns any rate-controller loss feeding and
// metrics.
func (p PollPolicy) FoldPollFailureAt(c *NodeColumns, i, cycle int) LivenessChange {
	st := c.Stats
	if st != nil {
		st.Health[i] = foldHealth(st.Health[i], false)
	}
	c.SilentCycles[i]++
	if p.DropAfter > 0 && int(c.SilentCycles[i]) >= p.DropAfter {
		if p.Probation {
			c.Flags[i] |= FlagQuarantined
			if st != nil {
				st.QuarantineEntries[i]++
			}
			c.QuarantinedAt[i] = int32(cycle)
			c.ProbeInterval[i] = int32(p.probeBase())
			c.NextProbe[i] = int32(cycle) + c.ProbeInterval[i]
			return LivenessQuarantined
		}
		c.Flags[i] |= FlagDropped
		return LivenessDropped
	}
	return LivenessNone
}

// ProbeDueAt reports whether quarantined node i's re-probe backoff has
// elapsed at the given cycle.
func (c *NodeColumns) ProbeDueAt(i, cycle int) bool {
	return c.Flags[i]&FlagQuarantined != 0 && int32(cycle) >= c.NextProbe[i]
}

// NextProbeAt returns node i's next scheduled re-probe cycle (meaningful
// only while quarantined) — the hook an event-driven scheduler uses to
// calendar probes instead of scanning every quarantined node.
func (c *NodeColumns) NextProbeAt(i int) int { return int(c.NextProbe[i]) }

// State materializes node i as a NodeState, for reports. Its statistics
// fields are zero unless statistics are attached.
func (c *NodeColumns) State(i int) NodeState {
	ns := NodeState{
		SilentCycles: int(c.SilentCycles[i]),
		Dropped:      c.Flags[i]&FlagDropped != 0,
		Quarantined:  c.Flags[i]&FlagQuarantined != 0,
	}
	if st := c.Stats; st != nil {
		ns.Addr = st.Addr[i]
		ns.Polls = int(st.Polls[i])
		ns.Successes = int(st.Successes[i])
		ns.Retries = int(st.Retries[i])
		ns.LastSNRdB = st.LastSNRdB[i]
		ns.Health = st.Health[i]
		ns.QuarantineEntries = int(st.QuarantineEntries[i])
	}
	return ns
}

// ProbeHorizon returns the resolved re-probe backoff cap in cycles — the
// farthest ahead of the current cycle FoldPollFailureAt/FoldProbeFailureAt
// will ever schedule a re-probe. Event-driven schedulers size their probe
// calendars with it.
func (p PollPolicy) ProbeHorizon() int { return p.probeMax() }
