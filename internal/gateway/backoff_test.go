package gateway

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestNextBackoffJitterBounds: each sleep draws uniformly from the equal-
// jitter window [cur/2, cur]; the schedule doubles and saturates at the
// cap. Jitter decorrelates a fleet of clients reconnecting after a shared
// gateway outage — without it they thunder back in lockstep.
func TestNextBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cur := baseBackoff
	for i := 0; i < 12; i++ {
		sleep, next := nextBackoff(cur, rng)
		if sleep < cur/2 || sleep > cur {
			t.Fatalf("step %d: sleep %v outside [%v, %v]", i, sleep, cur/2, cur)
		}
		want := cur * 2
		if want > maxBackoff {
			want = maxBackoff
		}
		if next != want {
			t.Fatalf("step %d: next %v, want %v", i, next, want)
		}
		cur = next
	}
	if cur != maxBackoff {
		t.Fatalf("schedule never saturated: %v", cur)
	}
}

// TestNextBackoffSpread: consecutive draws at the same level must not all
// collide — the whole point of jitter.
func TestNextBackoffSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		sleep, _ := nextBackoff(time.Second, rng)
		seen[sleep] = true
	}
	if len(seen) < 8 {
		t.Fatalf("32 draws produced only %d distinct sleeps", len(seen))
	}
}

// TestDialHandshakeTimeout: a server that never sends its hello frame must
// fail the handshake within the configured deadline, not hang.
func TestDialHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Mute server: hold the socket open, send nothing.
		defer conn.Close()
		time.Sleep(2 * time.Second)
	}()

	start := time.Now()
	_, err = Dial(context.Background(), ln.Addr().String(),
		withHandshakeTimeout(100*time.Millisecond))
	if err == nil {
		t.Fatal("handshake against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("handshake failure took %v, want ~100ms", elapsed)
	}
}

// withHandshakeTimeout shortens the client's wait for the gateway's hello
// frame, so a test against a mute or chaotic server fails fast.
func withHandshakeTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.handshakeTimeout = d }
}
