package node

import (
	"testing"

	"vab/internal/link"
	"vab/internal/phy"
)

func newTestNode(t *testing.T) *Node {
	t.Helper()
	h := DefaultHarvester()
	h.BatteryBacked = true
	n, err := New(Config{
		Addr:    3,
		Codec:   link.DefaultCodec(),
		PHY:     phy.DefaultParams(),
		Harvest: h,
		Sensor:  NewEnvSensor(15, 2.5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// A brownout silences the node immediately; the next charge interval
// (battery-backed rail) brings it back — transient fault, transient cost.
func TestInjectBrownout(t *testing.T) {
	n := newTestNode(t)
	n.Harvest(1, 1.5e6, 3600)
	if n.State() != StateListen {
		t.Fatalf("node failed to wake: %v", n.State())
	}

	n.InjectBrownout()
	if n.State() != StateSleep {
		t.Fatalf("state after brownout = %v, want sleep", n.State())
	}
	if n.cfg.Harvest.voltage != 0 {
		t.Fatalf("rail at %.3g V after forced depletion", n.cfg.Harvest.voltage)
	}
	if bits, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 3}); err != nil || bits != nil {
		t.Fatalf("browned-out node answered (bits=%v err=%v)", bits != nil, err)
	}

	// Recovery: the battery floats the reservoir back over turn-on.
	n.Harvest(1, 1.5e6, 60)
	if n.State() != StateListen {
		t.Fatalf("node failed to recover after recharge: %v", n.State())
	}
	if bits, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 3}); err != nil || bits == nil {
		t.Fatalf("recovered node stayed silent (err=%v)", err)
	}
}

func TestSetClockPPM(t *testing.T) {
	n := newTestNode(t)
	if n.cfg.PHY.ClockPPM != 0 {
		t.Fatalf("default clock error %.3g ppm", n.cfg.PHY.ClockPPM)
	}
	if err := n.SetClockPPM(1500); err != nil {
		t.Fatal(err)
	}
	if n.cfg.PHY.ClockPPM != 1500 {
		t.Fatalf("clock error %.3g ppm, want 1500", n.cfg.PHY.ClockPPM)
	}
	// No-op path.
	if err := n.SetClockPPM(1500); err != nil {
		t.Fatal(err)
	}
	// The skewed modulator must still produce waveforms.
	n.Harvest(1, 1.5e6, 3600)
	if n.State() != StateListen {
		t.Fatalf("node state %v", n.State())
	}
	bits, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 3})
	if err != nil || bits == nil {
		t.Fatalf("skewed node silent (err=%v)", err)
	}
	if err := n.SetClockPPM(0); err != nil {
		t.Fatal(err)
	}
}

func TestSetChipRate(t *testing.T) {
	n := newTestNode(t)
	if err := n.SetChipRate(250); err != nil {
		t.Fatal(err)
	}
	if got := n.cfg.PHY.ChipRate; got != 250 {
		t.Fatalf("chip rate %.0f, want 250", got)
	}
	if err := n.SetChipRate(250); err != nil { // no-op
		t.Fatal(err)
	}
	// 300 cps does not divide the 16 kHz sample rate into integer samples
	// per chip: the numerology must reject it and keep the old modulator.
	if err := n.SetChipRate(300); err == nil {
		t.Fatal("invalid chip rate accepted")
	}
	if got := n.cfg.PHY.ChipRate; got != 250 {
		t.Fatalf("failed retune corrupted chip rate to %.0f", got)
	}
}
