package linksim

import (
	"runtime"
	"testing"

	"vab/internal/mac"
)

// TestFleetCycleAllocs pins the tentpole's zero-allocation contract: once
// the scratch buffers, cell cache and worker pool are warm, a serial cycle
// allocates nothing, and a pooled parallel cycle stays within a few words
// of runtime noise. Probation churn is active (the default table leaves
// far nodes lossy), so the pin covers the wheel and restore paths too.
func TestFleetCycleAllocs(t *testing.T) {
	run := func(workers int) float64 {
		fleet, err := NewFleet(Config{
			Nodes:  4096,
			Policy: probationPolicy(),
			Seed:   21,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fleet.Close()
		fleet.SetWorkers(workers)
		for c := 0; c < 40; c++ {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs := run(1); allocs != 0 {
		t.Fatalf("serial steady-state cycle allocates %.1f/op, want 0", allocs)
	}
	if allocs := run(4); allocs > 2 {
		t.Fatalf("pooled steady-state cycle allocates %.1f/op, want ≤ 2", allocs)
	}
}

// TestFleetBytesPerNode pins what a calm fleet keeps per node: the live
// heap after NewFleet and two cycles at one worker, as a slope between
// 50k and 100k nodes so fixed costs (the dispatch ring's record storage,
// the table) cancel. The cycle reads 33 bytes a node: 5 of liveness
// columns, a 24-byte resolved-cell cache entry and a 4-byte live-list
// slot. A calm fleet under a policy without probation keeps neither the
// probation columns nor the table coordinates.
func TestFleetBytesPerNode(t *testing.T) {
	live := func(nodes int) int64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fleet, err := NewFleet(Config{Nodes: nodes, Policy: mac.DefaultPollPolicy(), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		fleet.SetWorkers(1)
		for c := 0; c < 2; c++ {
			if _, err := fleet.RunCycle(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(fleet)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	small, large := live(50_000), live(100_000)
	if slope := float64(large-small) / 50_000; slope > 36 {
		t.Fatalf("live heap %.1f B/node (%d B at 50k nodes, %d B at 100k), want ≤ 36", slope, small, large)
	} else {
		t.Logf("live heap %.1f B/node", slope)
	}
}
