package mac

// probeWheel is the scheduler's probe calendar: cycle → quarantined nodes
// whose re-probe is due then. The previous implementation was a
// map[int][]int32 with a per-cycle sort.Slice — two allocations and a
// closure-driven sort on every cycle that touched probation. The wheel
// replaces it with a power-of-two ring of reusable buckets plus an
// overflow list, under three invariants:
//
//  1. Exact buckets. The wheel spans `horizon` cycles (sized past the
//     policy's ProbeHorizon), so every in-wheel entry due at cycle d
//     lives in bucket d&mask and nothing else does: re-probe intervals
//     are ≥ 1 and ≤ ProbeHorizon < horizon, so two co-resident dues can
//     never alias one bucket. Entries farther out than the horizon go to
//     the overflow list, which take() drains as their cycles come up —
//     far-future probes cost a scan only while any exist.
//  2. Ascending buckets, no sort. schedule() insertion-sorts each node
//     into its bucket from the tail. Within one cycle nodes are
//     scheduled in ascending order (the cycle's fold replays the blocks'
//     calendar records in schedule order), so the common insert is a
//     pure append; only an entry from a *later* cycle landing below an
//     earlier cycle's run shifts, and buckets are small (the nodes of
//     one future cycle's probe schedule).
//  3. Reused storage. take() hands the bucket back truncated to length
//     zero, so steady-state scheduling never allocates; the slice a
//     take() returns is valid until the next take(), including while the
//     cycle's fold schedules other buckets: a due is always in the
//     future, so schedule() never targets the bucket just taken.
//
// Stale entries are the caller's concern, as with the map: an entry
// whose node was restored or re-scheduled since insertion is skipped by
// the ProbeDueAt guard when its bucket comes up.
type probeWheel struct {
	mask     int       // len(buckets)-1; len is a power of two
	buckets  [][]int32 // ring of per-cycle due lists, each ascending
	overflow []overflowProbe
	drained  []int32 // take() scratch: overflow entries coming due
	merged   []int32 // take() scratch: bucket ∪ drained
}

// overflowProbe is a far-future calendar entry: beyond the wheel span at
// schedule time, held with its absolute due cycle.
type overflowProbe struct {
	due  int
	node int32
}

// newProbeWheel sizes the ring to cover `span` cycles ahead (clamped to
// [8, 1024] buckets; anything farther rides the overflow list).
func newProbeWheel(span int) probeWheel {
	n := 8
	for n < span+1 && n < 1024 {
		n *= 2
	}
	return probeWheel{mask: n - 1, buckets: make([][]int32, n)}
}

// schedule calendars node's re-probe at cycle `due`, seen from `now`.
// Dues that are not in the future (impossible under the MAC policies,
// whose re-probe intervals are ≥ 1 cycle) are clamped to now+1 rather
// than silently landing in an already-consumed bucket.
func (w *probeWheel) schedule(node int32, due, now int) {
	if due <= now {
		due = now + 1
	}
	if due-now > w.mask {
		w.overflow = append(w.overflow, overflowProbe{due: due, node: node})
		return
	}
	b := w.buckets[due&w.mask]
	b = append(b, node)
	for j := len(b) - 1; j > 0 && b[j-1] > node; j-- {
		b[j-1], b[j] = b[j], b[j-1]
	}
	w.buckets[due&w.mask] = b
}

// take returns the ascending node list due at `cycle` and recycles the
// bucket's storage. The returned slice is valid until the next take or
// schedule beyond the horizon.
func (w *probeWheel) take(cycle int) []int32 {
	idx := cycle & w.mask
	b := w.buckets[idx]
	w.buckets[idx] = b[:0]
	if len(w.overflow) == 0 {
		return b
	}
	// Drain overflow entries whose cycle has come (≤, not ==, so an entry
	// could never linger past its due even if a horizon changed under it).
	kept := w.overflow[:0]
	w.drained = w.drained[:0]
	for _, e := range w.overflow {
		if e.due <= cycle {
			w.drained = append(w.drained, e.node)
			for j := len(w.drained) - 1; j > 0 && w.drained[j-1] > e.node; j-- {
				w.drained[j-1], w.drained[j] = w.drained[j], w.drained[j-1]
			}
		} else {
			kept = append(kept, e)
		}
	}
	w.overflow = kept
	if len(w.drained) == 0 {
		return b
	}
	// Merge the (rare) overflow arrivals with the bucket, ascending.
	w.merged = mergeSortedInto(w.merged, b, w.drained)
	return w.merged
}

// clear empties the calendar, keeping its storage.
func (w *probeWheel) clear() {
	for i := range w.buckets {
		w.buckets[i] = w.buckets[i][:0]
	}
	w.overflow = w.overflow[:0]
}

// mergeSortedInto merges two ascending int32 slices into dst (truncated,
// then appended; dst must not alias a or b).
func mergeSortedInto(dst, a, b []int32) []int32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
