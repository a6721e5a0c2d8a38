package vab

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"vab/internal/core"
	"vab/internal/gateway"
	"vab/internal/linksim"
	"vab/internal/mac"
	"vab/internal/netmem"
	"vab/internal/ocean"
	"vab/internal/telemetry"
)

// TestMetricNamesContract pins the /metrics names dashboards and alerts
// depend on. It instruments one core.System round, one cycle of each
// mac.Scheduler backend (the waveform core.Fleet and the abstract
// linksim.Fleet) and one gateway.Server publish on a single registry,
// renders the Prometheus text, and keeps only the # TYPE lines and each
// series' name with its label keys (values and samples vary run to run).
// The result must equal testdata/metrics_contract.txt; a deliberate rename
// or a new metric updates that file in the same change.
func TestMetricNamesContract(t *testing.T) {
	reg := telemetry.NewRegistry()

	env := ocean.CharlesRiver()
	design, err := core.NewVanAttaDesign(core.DefaultNodeElements, env, core.DefaultCarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.SystemConfig{Env: env, Design: design, Range: 100, NodeAddr: 7, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sys.Instrument(reg)
	sys.WakeNode(600)
	if _, err := sys.RunRound(); err != nil {
		t.Fatal(err)
	}

	policy := mac.DefaultPollPolicy()
	wave, err := core.NewFleet(core.SystemConfig{Env: env, Design: design, Range: 1, Seed: 3},
		[]core.NodePlacement{{Addr: 1, Range: 60}, {Addr: 2, Range: 120}}, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer wave.Close()
	wave.Instrument(reg)
	wave.Deploy(600)
	if _, _, err := wave.RunCycle(); err != nil {
		t.Fatal(err)
	}

	abstract, err := linksim.NewFleet(linksim.Config{Nodes: 16, Policy: policy, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer abstract.Close()
	abstract.Instrument(reg)
	if _, err := abstract.RunCycle(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := gateway.NewServerListener(ctx, netmem.Listen("metrics-contract", 0), t.Logf)
	defer srv.Close()
	srv.Instrument(reg)
	if err := srv.Publish(gateway.Reading{NodeAddr: 1, TempC: 15, PressureMbar: 1013, Time: time.Unix(0, 0)}); err != nil {
		t.Fatal(err)
	}

	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	got := metricNames(text.String())
	want, err := os.ReadFile("testdata/metrics_contract.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("metric names differ from testdata/metrics_contract.txt; the tree now exposes:\n%s", got)
	}
}

// metricNames reduces Prometheus text to its # TYPE lines and, once each,
// every series name with its label keys in written order.
func metricNames(prom string) string {
	var b strings.Builder
	seen := map[string]bool{}
	for _, line := range strings.Split(prom, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			b.WriteString(line + "\n")
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, ok := strings.Cut(series, "{")
		if ok {
			var keys []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, _, _ := strings.Cut(kv, "=")
				keys = append(keys, k)
			}
			name += "{" + strings.Join(keys, ",") + "}"
		}
		if !seen[name] {
			seen[name] = true
			b.WriteString(name + "\n")
		}
	}
	return b.String()
}
