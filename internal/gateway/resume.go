package gateway

import (
	"encoding/binary"
	"fmt"
)

// Session resume: a reconnecting subscriber recovers the readings it
// missed instead of silently losing them.
//
// The server numbers every published reading with a stream sequence
// (uint64, starting at 1), ships it in MsgSeqBatch frames, and keeps the
// most recent readings in a replay ring. A client that wants recovery
// sends a MsgResume frame carrying the last stream sequence it saw (0 on
// a fresh session); the server answers with MsgResumeAck and replays the
// gap. The ack names the first sequence that will actually be delivered,
// so the client knows exactly which readings (if any) aged out of the
// ring and are gone:
//
//	MsgResume    (client → gateway): uvarint lastSeq
//	MsgResumeAck (gateway → client): uvarint replayFrom · uvarint liveNext
//
// replayFrom > lastSeq+1 means the gap [lastSeq+1, replayFrom) is
// unrecoverable (the ring aged it out) and the session continues
// live-only from replayFrom.
//
// Interleaving contract: the server composes the ack and the replay
// under the sequence lock and routes them through the subscriber's shard
// queue, so they land strictly after every flush the replay covers and
// strictly before any flush that follows. The client drops data frames
// until the ack (the replay re-sends them), and a resumed subscriber
// observes one gap-free, strictly increasing sequence.

// ErrBadResume reports a malformed resume-family payload.
var ErrBadResume = fmt.Errorf("gateway: malformed resume frame")

// AppendResume appends a MsgResume payload: the last stream sequence the
// client saw (0 = none).
func AppendResume(dst []byte, lastSeq uint64) []byte {
	return binary.AppendUvarint(dst, lastSeq)
}

// DecodeResume parses a MsgResume payload.
func DecodeResume(p []byte) (lastSeq uint64, err error) {
	v, n := binary.Uvarint(p)
	if n <= 0 || n != len(p) {
		return 0, ErrBadResume
	}
	return v, nil
}

// AppendResumeAck appends a MsgResumeAck payload: the first sequence the
// server will deliver (replayed or live) and the next live sequence.
func AppendResumeAck(dst []byte, replayFrom, liveNext uint64) []byte {
	dst = binary.AppendUvarint(dst, replayFrom)
	return binary.AppendUvarint(dst, liveNext)
}

// DecodeResumeAck parses a MsgResumeAck payload.
func DecodeResumeAck(p []byte) (replayFrom, liveNext uint64, err error) {
	var n, m int
	replayFrom, n = binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, ErrBadResume
	}
	liveNext, m = binary.Uvarint(p[n:])
	if m <= 0 || n+m != len(p) || liveNext < replayFrom {
		return 0, 0, ErrBadResume
	}
	return replayFrom, liveNext, nil
}

// ReplayRing holds the most recent published readings, indexed by their
// stream sequence, so a resuming subscriber can recover its gap. Appends
// must be contiguous (each seq one past the previous); the server's
// publish path guarantees that by construction. The zero-size ring keeps
// nothing. Not safe for concurrent use — the server guards it with its
// sequence lock.
type ReplayRing struct {
	buf  []Reading
	next uint64 // the sequence the next Append must carry
	n    int    // live entries, ≤ len(buf)
}

// NewReplayRing builds a ring keeping the last n readings (n ≤ 0 keeps
// nothing).
func NewReplayRing(n int) *ReplayRing {
	if n < 0 {
		n = 0
	}
	return &ReplayRing{buf: make([]Reading, n), next: 1}
}

// Window returns the replayable sequence span [oldest, next): oldest is
// the smallest recoverable sequence, next the sequence the upcoming
// reading will carry. Empty window ⇔ oldest == next.
func (r *ReplayRing) Window() (oldest, next uint64) {
	return r.next - uint64(r.n), r.next
}

// Append records the reading published under seq. Out-of-order appends
// reset the ring to the new sequence point rather than serving a window
// with holes.
func (r *ReplayRing) Append(seq uint64, rd Reading) {
	if seq != r.next {
		r.n = 0
		r.next = seq
	}
	if len(r.buf) > 0 {
		r.buf[seq%uint64(len(r.buf))] = rd
		if r.n < len(r.buf) {
			r.n++
		}
	}
	r.next = seq + 1
}

// Since appends every retained reading with sequence > lastSeq to dst in
// sequence order, returning the extended slice and the first appended
// sequence (0 when nothing qualified). Sequences older than the window
// are gone: the caller compares firstSeq against lastSeq+1 to detect the
// unrecoverable gap.
func (r *ReplayRing) Since(lastSeq uint64, dst []Reading) ([]Reading, uint64) {
	oldest, next := r.Window()
	from := lastSeq + 1
	if from < oldest {
		from = oldest
	}
	if from >= next {
		return dst, 0
	}
	first := from
	for seq := from; seq < next; seq++ {
		dst = append(dst, r.buf[seq%uint64(len(r.buf))])
	}
	return dst, first
}
