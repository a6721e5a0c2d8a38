package gateway

import (
	"sync/atomic"

	"vab/internal/telemetry"
)

// gwMetrics bundles the server's instrumentation handles. The zero value
// (all-nil metrics) is the noop default; all telemetry operations on nil
// handles are free.
type gwMetrics struct {
	subscribers *telemetry.Gauge   // currently connected subscribers
	connects    *telemetry.Counter // lifetime accepted subscribers
	framesSent  *telemetry.Counter // frames written to sockets
	readings    *telemetry.Counter // readings published
	rejected    *telemetry.Counter // readings Publish refused (not encodable)
	heartbeats  *telemetry.Counter // heartbeat frames sent
	slowDrops   *telemetry.Counter // subscribers dropped for not draining
	writeErrors *telemetry.Counter // socket write failures
	batches     *telemetry.Counter // MsgSeqBatch frames encoded for flushes
	hbDrops     *telemetry.Counter // dead peers dropped for missing pongs
	resumes     *telemetry.Counter // MsgResume sessions accepted
	replayed    *telemetry.Counter // readings replayed from the ring
	lag         *telemetry.Histogram
}

// lagBuckets bounds vab_gateway_subscriber_lag_flushes: log entries
// behind the head, up to the 64-entry eviction bound.
var lagBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}

// noopGW is handed out before Instrument is called: its nil fields make
// every metric operation a no-op.
var noopGW gwMetrics

// Instrument registers the server's metrics in reg and starts recording.
// Safe to call while the server is live (the handle swap is atomic) and
// with a nil registry (stays noop).
func (s *Server) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m := &gwMetrics{
		subscribers: reg.Gauge("vab_gateway_subscribers",
			"Currently connected TCP subscribers."),
		connects: reg.Counter("vab_gateway_subscribers_accepted_total",
			"Subscriber connections accepted since start."),
		framesSent: reg.Counter("vab_gateway_frames_sent_total",
			"Wire frames successfully written to subscriber sockets."),
		readings: reg.Counter("vab_gateway_readings_published_total",
			"Sensor readings published to the fan-out."),
		rejected: reg.Counter("vab_gateway_readings_rejected_total",
			"Readings Publish refused because the wire cannot encode them (non-finite or out-of-range fields)."),
		heartbeats: reg.Counter("vab_gateway_heartbeats_total",
			"Heartbeat frames sent to idle subscribers."),
		slowDrops: reg.Counter("vab_gateway_slow_subscriber_drops_total",
			"Subscribers disconnected because they fell more than 64 broadcast log entries behind."),
		writeErrors: reg.Counter("vab_gateway_write_errors_total",
			"Socket write failures (subscriber lost mid-frame)."),
		batches: reg.Counter("vab_gateway_reading_batches_total",
			"Batch frames encoded by broadcast flushes."),
		hbDrops: reg.Counter("vab_gateway_dead_peer_drops_total",
			"Subscribers dropped because heartbeat pongs stopped."),
		resumes: reg.Counter("vab_gateway_resumes_total",
			"Resume requests accepted (subscriber switched to sequenced delivery)."),
		replayed: reg.Counter("vab_gateway_readings_replayed_total",
			"Readings replayed from the ring to resuming subscribers."),
		lag: reg.Histogram("vab_gateway_subscriber_lag_flushes",
			"Largest head - cursor over a shard's live subscribers, in broadcast log entries; one observation per wake pass.",
			lagBuckets),
	}
	s.metrics.Store(m)
	s.addSubscribers(0)
}

// met returns the live metrics handle or the noop bundle.
func (s *Server) met() *gwMetrics {
	if m := s.metrics.Load(); m != nil {
		return m
	}
	return &noopGW
}

// metricsPtr is embedded in Server as an atomic handle so Instrument can
// race connection goroutines safely.
type metricsPtr = atomic.Pointer[gwMetrics]
