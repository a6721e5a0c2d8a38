package gateway

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// SubscribeOption customizes Subscribe.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	readTimeout time.Duration
	blocking    bool
	resume      bool
	dialOpts    []DialOption
}

// WithReadTimeout sets the per-read deadline Subscribe applies while
// waiting for the next frame (default 30s). It is the client-side
// dead-peer detector: a gateway that stops sending frames — heartbeats
// included — for this long is presumed gone and the session re-dials.
// Set it comfortably above the gateway's heartbeat period.
func WithReadTimeout(d time.Duration) SubscribeOption {
	return func(c *subscribeConfig) {
		if d > 0 {
			c.readTimeout = d
		}
	}
}

// WithBlockingDelivery makes Subscribe block on a full out channel
// instead of dropping the reading. The caller accepts backpressure in
// exchange for completeness; a sufficiently slow caller will eventually
// be evicted by the gateway instead (server-side slow-subscriber drop),
// which resume then repairs.
func WithBlockingDelivery() SubscribeOption {
	return func(c *subscribeConfig) { c.blocking = true }
}

// WithSessionResume carries the stream sequence across reconnects: each
// re-dial sends MsgResume with the last sequence seen, so the gateway
// replays the disconnection gap from its ring (when still within the
// window) instead of the session silently skipping it.
func WithSessionResume() SubscribeOption {
	return func(c *subscribeConfig) { c.resume = true }
}

// WithDialOptions appends options to every Dial attempt (e.g.
// WithHandshakeTimeout, WithLocalAddr).
func WithDialOptions(opts ...DialOption) SubscribeOption {
	return func(c *subscribeConfig) { c.dialOpts = append(c.dialOpts, opts...) }
}

// Subscribe maintains a resilient subscription to a gateway: it dials,
// streams readings into out, and on any error re-dials with exponential
// backoff until ctx is cancelled. A shore-side consumer of a coastal
// deployment runs for months; transient gateway restarts and network blips
// must not require operator attention.
//
// The out channel is closed when ctx ends. By default readings that
// arrive while out is full are dropped (a telemetry feed prefers
// freshness over completeness) — every such drop is now counted by the
// vab_gateway_client_dropped_total metric (see InstrumentClient), and
// WithBlockingDelivery switches to backpressure instead. WithSessionResume
// additionally repairs reconnect gaps from the gateway's replay ring.
func Subscribe(ctx context.Context, addr string, out chan<- Reading, opts ...SubscribeOption) {
	defer close(out)
	cfg := subscribeConfig{readTimeout: 30 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	backoff := baseBackoff
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastSeq uint64
	connected := false
	for {
		if ctx.Err() != nil {
			return
		}
		dialOpts := cfg.dialOpts
		if cfg.resume {
			dialOpts = append(dialOpts[:len(dialOpts):len(dialOpts)], WithResume(lastSeq))
		}
		c, err := Dial(ctx, addr, dialOpts...)
		if err != nil {
			sleep, next := nextBackoff(backoff, rng)
			if !sleepCtx(ctx, sleep) {
				return
			}
			backoff = next
			continue
		}
		if connected {
			cliMet().reconnects.Inc()
			if cfg.resume {
				cliMet().resumed.Inc()
			}
		}
		connected = true
		backoff = baseBackoff // connected: reset
		// Close the connection when ctx ends so Next unblocks.
		stop := context.AfterFunc(ctx, func() { c.Close() })
		ackChecked := false
		for {
			rd, err := c.Next(time.Now().Add(cfg.readTimeout))
			if err != nil {
				if errors.Is(err, ErrServerClosing) {
					// Graceful shutdown: the stream is complete; re-dial
					// from scratch on the backoff schedule.
					backoff = baseBackoff
				}
				break
			}
			if cfg.resume && !ackChecked {
				if from, _, ok := c.ResumeWindow(); ok {
					ackChecked = true
					if lastSeq > 0 && from > lastSeq+1 {
						// The ring aged out part of the gap: those readings
						// are unrecoverable, record the loss.
						cliMet().gapLost.Add(int64(from - lastSeq - 1))
					}
				}
			}
			if cfg.blocking {
				select {
				case out <- rd:
				case <-ctx.Done():
					stop()
					c.Close()
					return
				}
			} else {
				select {
				case out <- rd:
				case <-ctx.Done():
					stop()
					c.Close()
					return
				default: // slow consumer: drop the reading
					cliMet().dropped.Inc()
				}
			}
		}
		if s := c.LastSeq(); s > lastSeq {
			lastSeq = s
		}
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
