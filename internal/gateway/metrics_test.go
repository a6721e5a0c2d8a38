package gateway

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vab/internal/telemetry"
)

// scrape fetches the handler's /metrics page and returns the value of one
// series (0 when absent).
func scrape(t *testing.T, url, series string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("series %s: bad value %q", series, m[1])
	}
	return v
}

// TestMetricsDuringLiveRound runs a real instrumented gateway with
// several subscribers draining concurrently, publishes from multiple
// goroutines (concurrent metric writes across subscriber and publisher
// goroutines — the -race target of this file), and scrapes /metrics over
// HTTP while traffic flows.
func TestMetricsDuringLiveRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	ops := httptest.NewServer(telemetry.NewHandler(reg))
	defer ops.Close()

	const nClients = 3
	var clients []*Client
	for i := 0; i < nClients; i++ {
		c, err := Dial(ctx, s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	waitSubscribers(t, s, nClients)

	if got := scrape(t, ops.URL, "vab_gateway_subscribers"); got != nClients {
		t.Errorf("vab_gateway_subscribers = %g, want %d", got, nClients)
	}

	// Publish from several goroutines while every client drains.
	const pubs, perPub = 4, 25
	var wg sync.WaitGroup
	for p := 0; p < pubs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				s.Publish(testReading())
			}
		}()
	}
	drained := make(chan int, nClients)
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			n := 0
			for n < pubs*perPub {
				if _, err := c.Next(time.Now().Add(5 * time.Second)); err != nil {
					break
				}
				n++
			}
			drained <- n
		}(c)
	}
	// Scrape concurrently with the traffic: must not race or tear.
	for i := 0; i < 5; i++ {
		scrape(t, ops.URL, "vab_gateway_frames_sent_total")
	}
	wg.Wait()
	close(drained)
	total := 0
	for n := range drained {
		total += n
	}

	if got := scrape(t, ops.URL, "vab_gateway_readings_published_total"); got != pubs*perPub {
		t.Errorf("vab_gateway_readings_published_total = %g, want %d", got, pubs*perPub)
	}
	// Every reading frame each client received was counted on the send
	// side (hello and heartbeat frames may add more).
	if got := scrape(t, ops.URL, "vab_gateway_frames_sent_total"); got < float64(total) {
		t.Errorf("vab_gateway_frames_sent_total = %g, want ≥ %d", got, total)
	}
	if got := scrape(t, ops.URL, "vab_gateway_subscribers_accepted_total"); got != nClients {
		t.Errorf("vab_gateway_subscribers_accepted_total = %g, want %d", got, nClients)
	}
}

// TestMetricsSlowSubscriberDrop pins the slow-drop counter: a subscriber
// that never drains must eventually show up in
// vab_gateway_slow_subscriber_drops_total and leave the gauge at zero.
func TestMetricsSlowSubscriberDrop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewServer(ctx, "127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	ops := httptest.NewServer(telemetry.NewHandler(reg))
	defer ops.Close()

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitSubscribers(t, s, 1)

	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribers() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow subscriber never dropped")
		}
		s.Publish(testReading())
	}
	if got := scrape(t, ops.URL, "vab_gateway_slow_subscriber_drops_total"); got != 1 {
		t.Errorf("vab_gateway_slow_subscriber_drops_total = %g, want 1", got)
	}
	if got := scrape(t, ops.URL, "vab_gateway_subscribers"); got != 0 {
		t.Errorf("vab_gateway_subscribers = %g, want 0", got)
	}
}

// TestSubscriberLagMetric pins vab_gateway_subscriber_lag_flushes: its
// name, type and bucket bounds, and that wake passes observe into it.
func TestSubscriberLagMetric(t *testing.T) {
	s, _ := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	ops := httptest.NewServer(telemetry.NewHandler(reg))
	defer ops.Close()
	c, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	s.Publish(testReading())
	if _, err := c.Next(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for scrape(t, ops.URL, "vab_gateway_subscriber_lag_flushes_count") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no wake pass observed a lag")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`(?m)^# TYPE vab_gateway_subscriber_lag_flushes histogram$`).Match(body) {
		t.Error("vab_gateway_subscriber_lag_flushes is not exported as a histogram")
	}
	var les []string
	for _, m := range regexp.MustCompile(`(?m)^vab_gateway_subscriber_lag_flushes_bucket\{le="([^"]+)"\} `).FindAllSubmatch(body, -1) {
		les = append(les, string(m[1]))
	}
	if got, want := strings.Join(les, " "), "0 1 2 4 8 16 32 64 +Inf"; got != want {
		t.Errorf("lag buckets %q, want %q", got, want)
	}
}

// TestUninstrumentedServerIsNoop pins the default-off contract: a server
// that was never instrumented publishes normally with nil metrics.
func TestUninstrumentedServerIsNoop(t *testing.T) {
	s, _ := startServer(t)
	c, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	s.Publish(testReading())
	if _, err := c.Next(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if s.met() != &noopGW {
		t.Error("uninstrumented server must use the noop bundle")
	}
}
