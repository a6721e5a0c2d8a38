// Command vabperf runs the VAB stack's benchmark: one workload per
// process, a fixed seed, a fixed measured length, output checks, and every
// metric printed by name with its unit. See package vab/internal/benchmark
// for the workloads, metrics and trace.
//
// Usage, from the repository root (internal/benchmark/run.sh builds and runs it):
//
//	vabperf --workload fleet_1m --seed 1 --seconds 10 --trace 0
//	vabperf --workload all --seed 1 --seconds 10 --trace 0
//	vabperf --workload calibrate --seed 7 --seconds 10 --trace 1   # ladder + spans
//	vabperf --workload ingest_bulk --seed 1 --seconds 10 --trace 0 --out bulk.json
//	vabperf --markdown bulk.json fleet.json     # perf tables from --out files
//	vabperf --compare old.json new.json         # flag regressions
//
// The last line of standard output is the result as one JSON object. The
// exit code is nonzero when a run fails, an output check does, or
// --compare flags a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"vab/internal/benchmark"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one vabperf invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vabperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", `workload name, or "all" to run each in its own process`)
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = per-layer run: ladder, spans and tracing overhead")
	out := fs.String("out", "", "also write the full result, with spreads, to this file")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "where a traced run writes its spans")
	markdown := fs.Bool("markdown", false, "print perf tables from the --out files given as arguments")
	compare := fs.Bool("compare", false, "compare two --out files: old new; exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "vabperf:", err)
		return 1
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}

	switch {
	case *markdown:
		recs, err := benchmark.ReadRecords(fs.Args())
		if err != nil {
			return fail(err)
		}
		benchmark.WriteMarkdown(stdout, recs)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("--compare takes two files: old new"))
		}
		old, err := benchmark.ReadRecords(fs.Args()[:1])
		if err != nil {
			return fail(err)
		}
		cur, err := benchmark.ReadRecords(fs.Args()[1:])
		if err != nil {
			return fail(err)
		}
		if regs := benchmark.Compare(stdout, old, cur); len(regs) > 0 {
			return fail(fmt.Errorf("%d metric(s) regressed beyond both their bound and the recorded spread", len(regs)))
		}
		return 0
	case *workload == "all":
		code := 0
		for _, w := range benchmark.Workloads {
			cmd := exec.Command(os.Args[0], "--workload", w.Name(), "--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", strconv.Itoa(*trace), "--trace-dir", *traceDir)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "vabperf: %s: %v\n", w.Name(), err)
				code = 1
			}
		}
		return code
	}

	opts := benchmark.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		TraceDir: *traceDir, Log: stderr,
	}
	res, err := benchmark.Run(opts)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(res.Record(opts), "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
