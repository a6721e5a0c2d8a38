package linksim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"vab/internal/mac"
)

// scheduleLog renders what a cycle scheduled and what it left behind: per
// cycle the polled, due-probe and restored counts and the hero picks, then
// a hash of the node columns the fold writes.
type scheduleLog struct{ b strings.Builder }

func (l *scheduleLog) cycle(f *Fleet, rep CycleReport) {
	fmt.Fprintf(&l.b, "c%d polled %d probes %d restored %d live %d hero %v\n",
		rep.Cycle, rep.Polled, rep.Probes, rep.Restored, rep.Live, f.hero.picked)
}

func (l *scheduleLog) columns(f *Fleet) {
	h := fnv.New64a()
	c := f.cols
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < c.Len(); i++ {
		put(uint64(uint32(c.Polls[i])))
		put(uint64(uint32(c.Successes[i])))
		put(uint64(uint32(c.Retries[i])))
		put(uint64(c.Flags[i]))
		put(math.Float64bits(c.Health[i]))
		put(uint64(uint32(c.NextProbe[i])))
	}
	fmt.Fprintf(&l.b, "columns %016x\n", h.Sum64())
}

// emptyingFleet is a small fleet whose live list empties: every node is
// one failed poll from probation and most never deliver, so later cycles
// schedule probes only, and the few restores re-enter the live list. Its
// hero picks must skip the probes that crowd its schedule.
func emptyingFleet(t *testing.T, workers int) *Fleet {
	t.Helper()
	placements := make([]Placement, 48)
	for i := range placements {
		placements[i] = Placement{RangeM: 200}
		if i%3 == 0 {
			placements[i].RangeM = 170 // delivers one poll in five
		}
	}
	fleet, err := NewFleet(Config{
		Placements: placements,
		Policy:     mac.PollPolicy{DropAfter: 1, Probation: true, ProbeBackoffBase: 1, ProbeBackoffMax: 4},
		Table:      hardTable(),
		Seed:       43,
		HeroLinks:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet.SetWorkers(workers)
	return fleet
}

// scheduleGolden runs both fleets at the given width and renders their
// schedule logs.
func scheduleGolden(t *testing.T, workers int) []byte {
	var log scheduleLog
	log.b.WriteString("# campaign: chaos + rate adaptation + probation, 20000 nodes, 4 hero links\n")
	fleet := campaignFleet(t, workers, 4)
	defer fleet.Close()
	for c := 0; c < 12; c++ {
		rep, err := fleet.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		log.cycle(fleet, rep)
	}
	log.columns(fleet)

	log.b.WriteString("# live list empties: probe-only cycles, 48 nodes, 2 hero links\n")
	small := emptyingFleet(t, workers)
	defer small.Close()
	probeOnly := 0
	for c := 0; c < 24; c++ {
		rep, err := small.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Probes > 0 && rep.Polled == rep.Probes {
			probeOnly++
		}
		log.cycle(small, rep)
	}
	log.columns(small)
	if probeOnly == 0 {
		t.Fatal("no probe-only cycle: the small fleet lost its teeth")
	}
	return []byte(log.b.String())
}

// TestFleetScheduleGolden pins what each cycle schedules — polls, due
// probes, restores, hero picks — and the node columns the fold leaves,
// against a committed log at 1, 3 and 8 workers.
func TestFleetScheduleGolden(t *testing.T) {
	const path = "testdata/fleet_schedule_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, scheduleGolden(t, 1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		if got := scheduleGolden(t, workers); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: schedule drifted from %s:\n%s", workers, path, got)
		}
	}
}
