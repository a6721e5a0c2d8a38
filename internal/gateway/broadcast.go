package gateway

import "sync/atomic"

// broadcast is an arena of encoded frames shared by reference across
// shard logs: a flush's MsgSeqBatch frames are encoded exactly once into
// a single contiguous buffer, and writers send sub-slices of it.
// Refcounting recycles the arena through the server's freelist once no
// cursor can reach it, so steady-state broadcasts allocate nothing. A
// resume reply (ack plus replay) uses a private arena with a single
// reference.
//
// Lifecycle: the flush path (under seqMu) takes an arena from the
// freelist, encodes, sets refs to the shard count, and appends it to
// every shard's log. Each shard's wake pass drops its reference once
// every cursor on the shard is past the arena's position, and the last
// release returns the arena to the freelist. An arena whose log slot was
// overwritten before its shard released it is left to the GC.
type broadcast struct {
	refs atomic.Int64

	buf    []byte   // all frames, back to back
	bounds []int    // frame boundaries into buf; bounds[0] == 0
	frames [][]byte // one sub-slice of buf per frame

	// at is the log position a resume reply is written before.
	at uint64
}

// broadcastFreelist bounds how many idle arenas the server retains.
const broadcastFreelist = 8

// getBroadcast takes a recycled arena or allocates a fresh one, emptied
// for encoding.
func (s *Server) getBroadcast() *broadcast {
	var b *broadcast
	select {
	case b = <-s.freeBcast:
	default:
		b = &broadcast{}
	}
	b.buf = b.buf[:0]
	b.bounds = append(b.bounds[:0], 0)
	return b
}

// releaseBroadcast drops one reference and recycles the arena when it
// was the last. The constant heartbeat and goodbye entries are never
// recycled.
func (s *Server) releaseBroadcast(b *broadcast) {
	if b == heartbeatEntry || b == goodbyeEntry || b.refs.Add(-1) != 0 {
		return
	}
	select {
	case s.freeBcast <- b:
	default: // freelist full: let the GC take it
	}
}

// appendFrame encodes one frame into the arena.
func (b *broadcast) appendFrame(t MsgType, payload []byte) error {
	buf, err := AppendFrame(b.buf, t, payload)
	if err != nil {
		return err
	}
	b.buf = buf
	b.bounds = append(b.bounds, len(b.buf))
	return nil
}

// seal materializes the frame slices once the buffer has stopped growing
// (append may reallocate b.buf, invalidating earlier sub-slices).
func (b *broadcast) seal() {
	b.frames = b.frames[:0]
	for i := 0; i+1 < len(b.bounds); i++ {
		b.frames = append(b.frames, b.buf[b.bounds[i]:b.bounds[i+1]])
	}
}

// encodeSeqFrames appends rds, the first carrying stream sequence
// firstSeq, to b as MsgSeqBatch frames, splitting recursively in the
// pathological case the encoded block exceeds the payload bound. Returns
// the number of frames appended. Callers hold seqMu.
func (s *Server) encodeSeqFrames(b *broadcast, rds []Reading, firstSeq uint64) int {
	payload, err := AppendSeqBatch(s.payload[:0], firstSeq, rds)
	if err == ErrOversize && len(rds) > 1 {
		half := len(rds) / 2
		n := s.encodeSeqFrames(b, rds[:half], firstSeq)
		return n + s.encodeSeqFrames(b, rds[half:], firstSeq+uint64(half))
	}
	if err == nil {
		s.payload = payload[:0]
		err = b.appendFrame(MsgSeqBatch, payload)
	}
	if err != nil {
		s.logf("gateway: encode batch: %v", err)
		return 0
	}
	return 1
}
