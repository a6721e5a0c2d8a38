// Package benchmark is the VAB stack's benchmark: four workloads that
// each stress a different tier, end-to-end metrics measured with tracing
// off, and a traced run that adds a per-layer ladder and spans around
// every call the benchmark makes into a layer. It is the yardstick for
// perf and simplicity claims on the waveform tier, the calibrated abstract
// tier and the shore gateway.
//
// # Running it
//
// From the repository root:
//
//	bash internal/benchmark/run.sh --workload fleet_1m --seed 1 --seconds 10 --trace 0
//	bash internal/benchmark/run.sh --workload all --seed 1 --seconds 10 --trace 0
//	bash internal/benchmark/run.sh --workload ingest_bulk --seed 1 --seconds 10 --trace 1
//
// run.sh builds cmd/vabperf into .bench_build/ (with its own Go caches)
// and runs it. Each workload runs in a fresh process; --workload all
// starts one per workload. The last line of standard output is the result
// as JSON — correct, attempted, failed and every metric with its unit —
// and the exit code is nonzero when an output check failed. Progress, the
// ladder and span summaries go to standard error. --out writes the result
// with each metric's spread; --markdown prints perf tables from such files
// and --compare flags regressions between two of them, exiting 1 when it
// flags any. The package tests (go test ./... inside internal/benchmark/)
// include a reduced-scale run of every workload and of the traced ladder.
//
// The package is a module of its own (vab/internal/benchmark, with a
// replace of vab to the repository root), so the root module's go build
// ./... and go test ./... do not reach it; build and test it from its own
// directory.
//
// # Workloads
//
// The load comes from this one process with GOMAXPROCS = nproc; at most
// nproc subscribers decode for real. Set-up runs at least five times and
// until it has taken a second (at most 50 times); the last set-up is
// measured, and setup_s is the median.
//
//   - calibrate: linksim.Calibrate over the committed 126-cell campaign
//     (DefaultCalibrateConfig, 40 waveform rounds per cell, workers =
//     nproc), at least three tables. Every table must encode to the bytes
//     of internal/linksim/testdata/calibration_v1.json. dsp, channel, phy
//     and reader do nearly all the work. The campaign seed is fixed: at
//     most other seeds the logistic fit never terminates (see
//     setupCalibrate), so --seed changes nothing here.
//   - fleet_1m: linksim.Fleet with 10^6 nodes, mac.DefaultPollPolicy(),
//     calm, workers = nproc; ten warm-up cycles in set-up, then at least
//     100 measured cycles. Before measuring, a 10^5-node fleet must give
//     identical cycle reports at one worker and at nproc. Exercises the
//     resolved-cell cache, the SoA fold and the probe wheel.
//   - ingest_fanout: an open loop from a 128-node fleet cycled every
//     100 ms through gateway.Server.Publish (16-reading batches) to 10 000
//     in-memory subscribers: nproc real gateway.Client probes with resume
//     sessions, the rest counting sinks replaying a real client's recorded
//     handshake. Each cycle's readings are due evenly across the interval,
//     stamped with their due time, and published by a generator that wakes
//     at most once a millisecond. Fan-out dominates.
//   - ingest_bulk: the same pipeline with 16 subscribers, a 100 000-node
//     feed under the chaos:0.3 fault engine cycled every 2 s (~39k
//     readings/s) and 64-reading batches. The per-reading path dominates.
//     The fault schedule's seed is fixed so that no two consecutive cycles
//     share a fault severity, and the feed never uses the cell cache.
//
// Probes check every reading's sequence (no gap, no duplicate) and content
// (the expected values on the wire's quantisation grid and the due time).
// Every sink must end with the probes' byte count. A reading a probe did
// not get right, and every reading of a short sink, counts as failed.
//
// # End-to-end metrics
//
// An operation is a calibration table (calibrate), a fleet cycle
// (fleet_1m), or one reading's trip from its due time to a probe's
// Client.Next return (ingest_*).
//
//   - setup_s (s): median of the set-ups.
//   - live_heap_mb (MB): live heap after forced collections at the end
//     of the measured phase — what the workload retains, without garbage
//     whose amount depends on when the collector last ran.
//   - op_p50_ms (ms): median operation time.
//   - op_tail_ms (ms): the slowest table on calibrate, p90 of cycles on
//     fleet_1m, p99 of receipt latency on ingest_fanout, and p90 on
//     ingest_bulk, where p99 does not repeat from run to run. Past
//     calibrate, each has at least ten samples beyond it.
//
// The regression bound of each is in BENCHMARK.json; EndToEnd says why the
// timing bounds are 0.25 rather than 0.1. --out files carry each metric's
// spread: min and max over five consecutive blocks of the run's samples
// (over the set-ups for setup_s).
//
// # The traced run and the ladder
//
// --trace 1 first runs the ladder: one canonical public call per layer,
// five samples of 20 ms each, reported as the median with min/max —
// dsp kernels, the channel round trip and its Wenz uplink noise, reader
// and phy stages, whole waveform rounds, the mac fold, linksim cycles
// (pooled, serial, uncached), the gateway codec, Publish, 10k-subscriber
// fan-out, a 4096-reading burst to 16 sinks (gateway.burst_evictions: a
// flusher that falls behind pushes its whole backlog into a 64-entry
// subscriber ring at once, all or nothing, so most runs count some today)
// and one ingest_bulk feed cycle for delivery latency and generator lag.
// The ladder takes about 9 s and is the same whatever the workload; every
// traced run repeats it because every traced run reports every per-layer
// metric. PerLayer says which end-to-end metric, on which workload, each ladder
// metric should move; on the other workloads it is predicted unchanged.
// core.round_other_us is the part of a near round that neither the
// round's own stage histograms (vab_round_stage_seconds) nor the rebuild
// and node-demodulation rungs account for; the log prints the same split
// for the far and chaos rounds.
//
// Then the workload runs for a quarter of --seconds untraced and a quarter
// traced (at least one operation each), so that with the ladder a traced
// run takes about as long as an untraced one. For the traced quarter every
// layer the workload drives is instrumented against a fresh registry, whose
// counters are printed, and spans are recorded around each call the
// benchmark makes into a layer. telemetry.overhead_pct compares the two
// phases' median operation time; workload.cpu_ns_per_item is the process
// CPU time of the untraced phase per item — a waveform round, a scheduled
// poll, or a delivered reading·subscriber.
//
// # Reading the trace
//
// A traced run writes .bench_build/traces/<workload>-seed<n>.json: the
// per-name totals over every span, and the earliest 100 000 spans (name,
// id, parent, shared trace id, start and end in ns since the run began).
// A span's self time is its duration less the part its children cover. Root spans are bench.table, bench.cycle and
// feed.cycle; in the ingest workloads a reading's stream sequence links
// its feed cycle, its gateway.Publish span (id 1<<62 | sequence) and each
// probe's gateway.Client.Next span, whose self time is mostly waiting.
package benchmark
