package linksim

import "testing"

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
