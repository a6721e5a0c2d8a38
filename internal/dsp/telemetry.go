package dsp

import "vab/internal/telemetry"

// Stage-timing handles for the two hot transform kernels. They stay nil
// (free no-ops, no clock reads) until Instrument is called, so the DSP
// hot path is untouched by default — the FFT kernel and system round
// benchmarks measure the same code either way.
var (
	metFFTTime   *telemetry.Histogram
	metXCorrTime *telemetry.Histogram
)

// Plan-cache counters (see plan.go). Unlike the span handles these are hit
// from arbitrary goroutines, but Counter.Add is atomic and nil-safe, so the
// same write-once-in-Instrument contract applies.
var (
	metPlanHits   *telemetry.Counter
	metPlanMisses *telemetry.Counter
)

// Instrument enables FFT/correlate stage timing against reg. Call once at
// startup, before any concurrent DSP use: the handles are plain package
// variables, written here and only read afterwards.
func Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	bounds := telemetry.ExpBuckets(1e-6, 10, 8) // 1 µs … 10 s
	metFFTTime = reg.Histogram(
		telemetry.Label("vab_dsp_stage_seconds", "stage", "fft"),
		"DSP kernel wall time in seconds.", bounds)
	metXCorrTime = reg.Histogram(
		telemetry.Label("vab_dsp_stage_seconds", "stage", "correlate"),
		"DSP kernel wall time in seconds.", bounds)
	metPlanHits = reg.Counter("vab_dsp_fft_plan_hits_total",
		"FFT transforms served from a cached plan.")
	metPlanMisses = reg.Counter("vab_dsp_fft_plan_misses_total",
		"FFT plans built (one per transform size first seen).")
}
