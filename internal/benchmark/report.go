package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// Record is a run's full result as --out writes it: every metric with its
// spread, plus what the run was.
type Record struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     bool                    `json:"trace"`
	Date      string                  `json:"date"`
	Go        string                  `json:"go"`
	CPUs      int                     `json:"cpus"`
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]RecordMetric `json:"metrics"`
}

// RecordMetric is one metric with its unit and spread.
type RecordMetric struct {
	Summary
	Unit string `json:"unit"`
}

// Record builds the run's Record.
func (r *Result) Record(o Options) Record {
	rec := Record{
		Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		Date: time.Now().UTC().Format(time.RFC3339), Go: runtime.Version(), CPUs: runtime.NumCPU(),
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]RecordMetric, len(r.Metrics)),
	}
	for name, v := range r.Metrics {
		rec.Metrics[name] = RecordMetric{Summary: r.spreads[name], Unit: v.Unit}
	}
	return rec
}

// ReadRecords loads --out files (each one Record).
func ReadRecords(paths []string) ([]Record, error) {
	var out []Record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// metricOrder lists metric names in declaration order: end-to-end first,
// then the ladder bottom up.
func metricOrder() []Metric {
	out := append([]Metric(nil), EndToEnd...)
	for _, m := range PerLayer {
		out = append(out, m.Metric)
	}
	return out
}

// WriteMarkdown prints one perf table per record, in the shape README and
// DESIGN carry: metric, median, unit, min–max spread and sample count.
func WriteMarkdown(w io.Writer, recs []Record) {
	for _, rec := range recs {
		kind := "end-to-end"
		if rec.Trace {
			kind = "per-layer"
		}
		fmt.Fprintf(w, "#### %s (%s, seed %d, %g s, %s, %d CPUs)\n\n", rec.Workload, kind, rec.Seed, rec.Seconds, rec.Go, rec.CPUs)
		fmt.Fprintln(w, "| metric | median | unit | spread (min–max) | n |")
		fmt.Fprintln(w, "|---|---:|---|---|---:|")
		for _, m := range metricOrder() {
			v, ok := rec.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "| `%s` | %s | %s | %s–%s | %d |\n", m.Name, num(v.Value), v.Unit, num(v.Lo), num(v.Hi), v.N)
		}
		status := "correct"
		if !rec.Correct {
			status = "INCORRECT"
		}
		fmt.Fprintf(w, "\n%s: %d attempted, %d failed\n\n", status, rec.Attempted, rec.Failed)
	}
}

func num(v float64) string { return fmt.Sprintf("%.4g", v) }

// Regression is one flagged comparison row.
type Regression struct {
	Workload, Metric string
	Old, New         float64
	Change           float64 // relative change, positive = worse
}

// Compare matches records by workload and kind and returns every metric
// that got worse by more than its bound (0.1 for per-layer metrics) and
// whose new spread lies wholly beyond the old one, so noise within the
// recorded spread never flags a row. Rows are printed to w.
func Compare(w io.Writer, old, cur []Record) []Regression {
	type key struct {
		workload string
		trace    bool
	}
	prev := make(map[key]Record)
	for _, r := range old {
		prev[key{r.Workload, r.Trace}] = r
	}
	var flagged []Regression
	for _, r := range cur {
		p, ok := prev[key{r.Workload, r.Trace}]
		if !ok {
			fmt.Fprintf(w, "%s: no baseline\n", r.Workload)
			continue
		}
		for _, m := range metricOrder() {
			a, okA := p.Metrics[m.Name]
			b, okB := r.Metrics[m.Name]
			if !okA || !okB || a.Value == 0 {
				continue
			}
			change := b.Value/a.Value - 1
			beyondSpread := b.Lo > a.Hi
			if m.Better == "higher" {
				change = -change
				beyondSpread = b.Hi < a.Lo
			}
			bound := m.Bound
			if bound == 0 {
				bound = 0.1
			}
			tag := ""
			if change > bound && beyondSpread {
				tag = "  REGRESSION"
				flagged = append(flagged, Regression{Workload: r.Workload, Metric: m.Name, Old: a.Value, New: b.Value, Change: change})
			}
			fmt.Fprintf(w, "%-14s %-36s %12s -> %12s %-5s (%+6.1f%% worse, bound %.0f%%)%s\n",
				r.Workload, m.Name, num(a.Value), num(b.Value), b.Unit, 100*change, 100*bound, tag)
		}
	}
	return flagged
}
