package gateway

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// subscribeReadTimeout is Subscribe's client-side dead-peer detector: a
// gateway that sends no frame — heartbeats included — for this long is
// presumed gone and the session re-dials. It sits well above the
// gateway's default heartbeat period.
const subscribeReadTimeout = 30 * time.Second

// Subscribe maintains a resilient subscription to a gateway: it dials,
// streams readings into out, and on any error re-dials with exponential
// backoff until ctx is cancelled. A shore-side consumer of a coastal
// deployment runs for months; transient gateway restarts and network blips
// must not require operator attention.
//
// Every dial resumes from the last sequence the previous session
// delivered, so the gateway replays the disconnection gap from its ring,
// and delivery blocks on a full out: the caller accepts backpressure in
// exchange for completeness. A reading is therefore lost only when a
// reconnect gap — after a network outage, or after the gateway evicted a
// consumer too slow to drain, which the server counts — outlives the
// gateway's replay ring. The out channel is closed when ctx ends.
func Subscribe(ctx context.Context, addr string, out chan<- Reading) {
	defer close(out)
	backoff := baseBackoff
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastSeq uint64
	for {
		if ctx.Err() != nil {
			return
		}
		c, err := Dial(ctx, addr, WithResume(lastSeq))
		if err != nil {
			sleep, next := nextBackoff(backoff, rng)
			if !sleepCtx(ctx, sleep) {
				return
			}
			backoff = next
			continue
		}
		backoff = baseBackoff // connected: reset
		// Close the connection when ctx ends so Next unblocks.
		stop := context.AfterFunc(ctx, func() { c.Close() })
		for {
			rd, err := c.Next(time.Now().Add(subscribeReadTimeout))
			if err != nil {
				if errors.Is(err, ErrServerClosing) {
					// Graceful shutdown: the stream is complete; re-dial
					// from scratch on the backoff schedule.
					backoff = baseBackoff
				}
				break
			}
			select {
			case out <- rd:
			case <-ctx.Done():
				stop()
				c.Close()
				return
			}
		}
		// The session's own resume point, even when it is below the last
		// one: a restarted gateway numbers its stream afresh, and keeping
		// the old server's higher sequence would skip the new one's
		// readings up to it on the next resume.
		lastSeq = c.LastSeq()
		stop()
		c.Close()
	}
}

// baseBackoff is the first reconnect delay; maxBackoff caps the schedule.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 10 * time.Second
)

// nextBackoff returns the jittered sleep for the current backoff level and
// the next level. The sleep is drawn uniformly from [cur/2, cur] ("equal
// jitter"): after a gateway restart, a fleet of shore-side subscribers
// whose unjittered timers were synchronized by the outage itself would
// otherwise reconnect in lockstep and hammer the listener in waves.
func nextBackoff(cur time.Duration, rng *rand.Rand) (sleep, next time.Duration) {
	half := cur / 2
	sleep = half + time.Duration(rng.Int63n(int64(half)+1))
	next = cur * 2
	if next > maxBackoff {
		next = maxBackoff
	}
	return sleep, next
}

// sleepCtx sleeps for d or until ctx is done; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
