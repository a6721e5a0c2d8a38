package benchmark

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"syscall"

	"time"

	"vab/internal/telemetry"
)

// Options configures one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the measured phase runs. Workloads with a
	// minimum operation count (see Workload.minOps) run past it when
	// their operations are slow.
	Seconds float64
	// Trace selects the per-layer run: the ladder of timed layer calls,
	// then the workload untraced and traced, reporting PerLayer metrics.
	Trace bool
	// TraceDir receives the span file of a traced run ("" = not written).
	TraceDir string
	// Small shrinks every workload and the ladder for the package tests.
	Small bool
	// LadderSample is the length of one ladder sample (0 = 20 ms).
	LadderSample time.Duration
	// Log receives progress lines (nil = discarded).
	Log io.Writer
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "vabperf: "+format+"\n", args...)
	}
}

// Workload is one named load. setup builds the state the measured phase
// runs against; it is repeated (see setupReps) and the last one is kept,
// so setup_s is a median and work moved into set-up shows.
type Workload struct {
	name string
	why  string
	// minOps is the fewest operations a measured phase runs, whatever
	// its length, so the tail percentile always has ten samples beyond.
	minOps int
	// tail is the percentile op_tail_ms reports (1 = the maximum).
	tail  float64
	setup func(o *Options) (runner, error)
}

// runner is a set-up workload.
type runner interface {
	// verify runs once before measuring: checks that need their own
	// inputs, such as worker-count determinism.
	verify() error
	// instrument attaches every layer the workload drives to reg.
	instrument(reg *telemetry.Registry)
	// measure runs operations for at least d and minOps operations.
	measure(d time.Duration, minOps int, tr *Tracer) (phase, error)
	close()
}

// phase is the outcome of one measured phase.
type phase struct {
	opMs      []float64 // per-operation latency, ms
	items     int64     // work units done (rounds, polls, reading·subs)
	attempted int64
	failed    int64
	problems  []string // output failures, for the log
}

// Set-up runs at least setupReps times and until it has taken a second,
// at most maxSetupReps times, so a cheap set-up's median rests on many
// samples.
const (
	setupReps    = 5
	maxSetupReps = 50
)

// Name is the workload's --workload name.
func (w *Workload) Name() string { return w.name }

// Why says what the workload stresses and why it exists.
func (w *Workload) Why() string { return w.why }

// Workloads lists the benchmark's workloads in run order.
var Workloads = []*Workload{calibrateWorkload, fleetWorkload, fanoutWorkload, bulkWorkload}

func findWorkload(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Value is one metric as the result line carries it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's outcome: the contract's last line plus the spread of
// each metric for Record.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`

	spreads map[string]Summary
}

func (r *Result) put(name string, s Summary) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]Value)
		r.spreads = make(map[string]Summary)
	}
	r.Metrics[name] = Value{Value: s.Value, Unit: unitOf(name)}
	r.spreads[name] = s
}

// Run executes one workload run: setup, an optional ladder, and the
// measured phase, with its output checks.
func Run(o Options) (*Result, error) {
	w, err := findWorkload(o.Workload)
	if err != nil {
		return nil, err
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %g", o.Seconds)
	}
	res := &Result{Correct: true}
	if o.Trace {
		// The ladder runs before anything is instrumented: package-level
		// Instrument calls (dsp, channel) cannot be undone.
		if err := runLadder(&o, res); err != nil {
			return nil, err
		}
		runtime.GC()
	}

	var r runner
	var setups []float64
	var setupTotal float64
	for i := 0; i < maxSetupReps && (i < setupReps || setupTotal < 1); i++ {
		if r != nil {
			r.close()
			r = nil // collectable before the next set-up allocates
			runtime.GC()
		}
		start := time.Now()
		r, err = w.setup(&o)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupTotal += setups[i]
	}
	defer r.close()
	o.logf("%s: setup %.4f s (median of %d)", w.name, Median(setups), len(setups))
	if err := r.verify(); err != nil {
		res.Correct = false
		o.logf("%s: verify: %v", w.name, err)
	}

	d := time.Duration(o.Seconds * float64(time.Second))
	if !o.Trace {
		ph, err := r.measure(d, w.minOps, nil)
		if err != nil {
			return nil, err
		}
		res.addPhase(&o, w, ph)
		res.put("setup_s", Summarize(setups))
		res.put("live_heap_mb", constant(liveHeapMB()))
		res.put("op_p50_ms", Blocked(ph.opMs, 5, Median))
		res.put("op_tail_ms", Blocked(ph.opMs, 5, func(xs []float64) float64 { return Percentile(xs, w.tail) }))
		return res, res.finite()
	}

	// Traced run: the same phase untraced and then traced, a quarter of
	// the length each, so that with the ladder the run stays near its
	// untraced length; their medians give the tracing overhead.
	cpu0 := cpuTime()
	base, err := r.measure(d/4, 1, nil)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0
	res.addPhase(&o, w, base)
	perItem := math.NaN()
	if base.items > 0 {
		perItem = float64(cpu.Nanoseconds()) / float64(base.items)
	}
	res.put("workload.cpu_ns_per_item", constant(perItem))
	reg := telemetry.NewRegistry()
	r.instrument(reg)
	tr := NewTracer()
	traced, err := r.measure(d/4, 1, tr)
	if err != nil {
		return nil, err
	}
	res.addPhase(&o, w, traced)
	over := 100 * (Median(traced.opMs)/Median(base.opMs) - 1)
	res.put("telemetry.overhead_pct", Summary{Value: over, Lo: over, Hi: over, N: len(traced.opMs)})
	for _, lt := range SelfTimes(tr.Spans()) {
		o.logf("%s: span %-28s n=%-7d total %10.1f ms  self %10.1f ms", w.name, lt.Name, lt.Count, lt.TotalMs, lt.SelfMs)
	}
	for _, s := range reg.Snapshot() {
		if s.Kind != telemetry.KindHistogram {
			o.logf("%s: counter %s = %g", w.name, s.Name, s.Value)
		}
	}
	if o.TraceDir != "" {
		path := filepath.Join(o.TraceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.Seed))
		if err := tr.Write(path, w.name, o.Seed); err != nil {
			return nil, err
		}
		o.logf("%s: trace written to %s", w.name, path)
	}
	return res, res.finite()
}

// addPhase folds a phase's counts and output checks into the result.
func (r *Result) addPhase(o *Options, w *Workload, ph phase) {
	r.Attempted += ph.attempted
	r.Failed += ph.failed
	if ph.failed > 0 || len(ph.problems) > 0 || ph.attempted == 0 {
		r.Correct = false
	}
	for _, p := range ph.problems {
		o.logf("%s: output check failed: %s", w.name, p)
	}
}

// finite rejects a result with a metric that could not be measured.
func (r *Result) finite() error {
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces collections and returns the live heap in MiB: what
// the workload retains, without the garbage whose amount depends on when
// the collector last ran. The second collection empties the sync.Pool
// victim caches (dsp keeps FFT scratch in one).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
