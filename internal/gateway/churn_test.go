package gateway

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vab/internal/faults/netfaults"
)

// churnProfile injects drops, partial writes, and brief stalls. Frame
// corruption is deliberately excluded: the wire format carries no
// integrity check, so a flipped bit can decode into a *valid* frame with
// wrong contents, which no session layer can detect — corruption's
// effect on delivery is measured by the E14 campaign instead.
func churnProfile() netfaults.Profile {
	return netfaults.Profile{
		Name:         "churn",
		DropPerOp:    0.01,
		PartialPerOp: 0.005,
		StallPerOp:   0.01,
		StallMs:      2,
	}
}

// TestChurnSoakThroughChaos is the soak scenario from the resilience
// contract: subscribers churn through a seeded chaos wrapper — injected
// drops, torn frames, stalls — while the stream keeps flowing, and every
// resumed session must observe a gap-free, strictly increasing sequence
// (the ring is sized so nothing ever ages out). Run under -race this
// also pins the server's internal accounting.
func TestChurnSoakThroughChaos(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 30
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := netfaults.NewEngine(1234, churnProfile())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerListener(ctx, eng.Listen(ln), t.Logf)
	defer srv.Close()
	// Heartbeats stay slow relative to injected stalls, so lazy
	// subscribers are evicted by queue overflow, not dead-peer checks.
	srv.SetHeartbeatPolicy(time.Second, 3)
	srv.SetReplay(1 << 16) // nothing ages out: gaps must be zero
	srv.SetBatching(8, 2*time.Millisecond)

	// Publisher: a steady stream until the soak ends.
	var stopPub atomic.Bool
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		for i := uint64(1); !stopPub.Load(); i++ {
			srv.Publish(seqReading(i))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Lazy subscribers that never read: the server must evict them
	// (queue overflow or write timeout) without disturbing anyone else.
	var lazyWG sync.WaitGroup
	lazyConns := make(chan net.Conn, 16)
	lazyWG.Add(1)
	go func() {
		defer lazyWG.Done()
		for i := 0; i < 8; i++ {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			lazyConns <- c
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// The resuming subscriber: reconnects every round, asserting the
	// sequence never gaps and never goes backwards.
	addr := ln.Addr().String()
	var lastSeq uint64
	var delivered, sessions int
	for round := 0; round < rounds; round++ {
		c, err := Dial(ctx, addr, WithResume(lastSeq), WithHandshakeTimeout(2*time.Second))
		if err != nil {
			continue // injected drop during handshake: next round
		}
		sessions++
		reads := 0
		for reads < 50 {
			rd, err := c.Next(time.Now().Add(500 * time.Millisecond))
			if err != nil {
				break // injected fault or timeout: reconnect
			}
			seq := c.LastSeq()
			if seq <= lastSeq {
				t.Fatalf("round %d: sequence went backwards: %d after %d", round, seq, lastSeq)
			}
			if seq != lastSeq+1 {
				t.Fatalf("round %d: gap: %d after %d (ring cannot age out here)", round, seq, lastSeq)
			}
			if uint64(rd.Count) != seq {
				t.Fatalf("round %d: content mismatch: count %d under seq %d", round, rd.Count, seq)
			}
			lastSeq = seq
			delivered++
			reads++
		}
		c.Close()
	}
	stopPub.Store(true)
	pubWG.Wait()
	lazyWG.Wait()
	close(lazyConns)
	for c := range lazyConns {
		c.Close()
	}
	if sessions == 0 || delivered == 0 {
		t.Fatalf("soak did no work: %d sessions, %d delivered", sessions, delivered)
	}
	t.Logf("churn soak: %d/%d sessions connected, %d readings, final seq %d",
		sessions, rounds, delivered, lastSeq)
}

// TestCloseAcceptChurn pins the Close vs acceptLoop race: servers are
// closed while dialers are mid-handshake, repeatedly. Close must return
// (its WaitGroup accounts for every spawned goroutine) and nothing may
// double-close a subscriber channel. Run under -race.
func TestCloseAcceptChurn(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		srv, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetDrainTimeout(100 * time.Millisecond)
		addr := srv.Addr().String()
		var wg sync.WaitGroup
		for d := 0; d < 8; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				// Half the dialers hang up instantly, half linger.
				if i%2 == 0 {
					c.Close()
					return
				}
				drainConn(c)
				c.Close()
			}()
		}
		for p := uint64(0); p < 16; p++ {
			srv.Publish(seqReading(p + 1))
		}
		done := make(chan struct{})
		go func() { srv.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return: leaked serve/readLoop goroutine")
		}
		cancel()
		wg.Wait()
	}
}
