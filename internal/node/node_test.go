package node

import (
	"math"
	"testing"
	"testing/quick"

	"vab/internal/link"
	"vab/internal/phy"
)

func testNode(t *testing.T) *Node {
	t.Helper()
	n, err := New(Config{
		Addr:    7,
		Codec:   link.DefaultCodec(),
		PHY:     phy.DefaultParams(),
		Budget:  DefaultPowerBudget(),
		Harvest: DefaultHarvester(),
		Sensor:  NewEnvSensor(15, 3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const rhoC = 1025.0 * 1480.0

func TestNewValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Addr: 1, Codec: link.DefaultCodec(), PHY: phy.DefaultParams(),
			Budget: DefaultPowerBudget(), Harvest: DefaultHarvester(),
			Sensor: NewEnvSensor(10, 2, 1),
		}
	}
	c := base()
	c.Harvest = nil
	if _, err := New(c); err == nil {
		t.Error("nil harvester accepted")
	}
	c = base()
	c.Sensor = nil
	if _, err := New(c); err == nil {
		t.Error("nil sensor accepted")
	}
	c = base()
	c.PHY.ChipRate = 0
	if _, err := New(c); err == nil {
		t.Error("bad PHY accepted")
	}
	c = base()
	c.Harvest = &Harvester{}
	if _, err := New(c); err == nil {
		t.Error("invalid harvester accepted")
	}
}

func TestHarvesterValidate(t *testing.T) {
	bad := []func(*Harvester){
		func(h *Harvester) { h.ApertureM2 = 0 },
		func(h *Harvester) { h.Efficiency = 0 },
		func(h *Harvester) { h.Efficiency = 1.5 },
		func(h *Harvester) { h.CapacitanceF = -1 },
		func(h *Harvester) { h.TurnOnVoltage = 9 }, // above max
	}
	for i, mutate := range bad {
		h := DefaultHarvester()
		mutate(h)
		if h.Validate() == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}

func TestHarvesterChargeDischarge(t *testing.T) {
	h := DefaultHarvester()
	if h.Operational() {
		t.Error("fresh harvester should start empty")
	}
	// Charge at 1 mW for 10 s: E = 10 mJ → V = sqrt(2·0.01/1e-4) > 5 →
	// clamps at MaxVoltage.
	h.Step(1e-3, 0, 10)
	if math.Abs(h.voltage-h.MaxVoltage) > 1e-9 {
		t.Errorf("voltage %v, want clamp at %v", h.voltage, h.MaxVoltage)
	}
	if !h.Operational() {
		t.Error("charged harvester should be operational")
	}
	// Drain: 1.25 mJ stored at 5 V; drawing 1 mW for 1 s leaves 0.25 mJ.
	e0 := h.StoredEnergy()
	spent := h.Step(0, 1e-3, 1)
	if math.Abs(spent-1e-3) > 1e-12 {
		t.Errorf("spent %v, want 1e-3", spent)
	}
	if math.Abs(h.StoredEnergy()-(e0-1e-3)) > 1e-12 {
		t.Errorf("stored %v, want %v", h.StoredEnergy(), e0-1e-3)
	}
	// Overdraw collapses to zero, reporting only what was available.
	avail := h.StoredEnergy()
	spent = h.Step(0, 1, 1)
	if math.Abs(spent-avail) > 1e-12 {
		t.Errorf("overdraw spent %v, want %v", spent, avail)
	}
	if h.voltage != 0 {
		t.Error("collapsed rail should read 0")
	}
}

func TestHarvesterEnergyConservationProperty(t *testing.T) {
	f := func(inU, loadU uint16, dtU uint8) bool {
		h := DefaultHarvester()
		h.Step(5e-3, 0, 1) // precharge
		in := float64(inU) * 1e-8
		load := float64(loadU) * 1e-8
		dt := float64(dtU%100)/100 + 0.01
		before := h.StoredEnergy()
		spent := h.Step(in, load, dt)
		after := h.StoredEnergy()
		// after ≤ before + in·dt − spent (equality unless clamped).
		return after <= before+in*dt-spent+1e-12 && spent <= load*dt+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHarvestablePower(t *testing.T) {
	h := DefaultHarvester()
	// 31.6 Pa (≈150 dB re µPa): I = p²/ρc ≈ 0.66 mW/m²; ×0.02 m²×0.25 ≈ 3.3 µW.
	p := h.HarvestablePower(31.6, rhoC)
	if p < 2e-6 || p > 5e-6 {
		t.Errorf("harvestable power %v W implausible", p)
	}
	if h.HarvestablePower(0, rhoC) != 0 || h.HarvestablePower(1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestNodeWakesAndResponds(t *testing.T) {
	n := testNode(t)
	if n.State() != StateSleep {
		t.Fatal("node should boot asleep")
	}
	// Strong carrier for long enough to charge: 100 Pa for 300 s.
	n.Harvest(100, rhoC, 300)
	if n.State() != StateListen {
		t.Fatalf("node should be listening, is %v (V=%v)", n.State(), n.cfg.Harvest.voltage)
	}
	q := &link.Frame{Type: link.FrameQuery, Addr: 7}
	gamma, err := n.HandleQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if gamma == nil {
		t.Fatal("addressed query should produce a response burst")
	}
	st := n.stats
	if st.FramesReturned != 1 || st.QueriesMine != 1 {
		t.Errorf("stats %+v", st)
	}
	// The burst length matches the codec chip count plus preamble.
	wantChips := n.cfg.Codec.ChipLength(PayloadSize)
	if len(gamma) != n.mod.BurstSamples(wantChips) {
		t.Errorf("gamma length %d, want %d", len(gamma), n.mod.BurstSamples(wantChips))
	}
}

func TestNodeIgnoresOtherAddresses(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 300)
	gamma, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 9})
	if err != nil || gamma != nil {
		t.Errorf("foreign query answered: %v %v", gamma, err)
	}
	gamma, err = n.HandleQuery(&link.Frame{Type: link.FrameCmd, Addr: 7})
	if err != nil || gamma != nil {
		t.Errorf("non-query answered: %v %v", gamma, err)
	}
	if _, err := n.HandleQuery(nil); err == nil {
		t.Error("nil frame accepted")
	}
}

func TestNodeAnswersBroadcast(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 300)
	gamma, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: link.BroadcastAddr})
	if err != nil || gamma == nil {
		t.Errorf("broadcast unanswered: %v %v", gamma, err)
	}
}

func TestNodeBrownsOutWithoutEnergy(t *testing.T) {
	n := testNode(t)
	// No harvesting at all: node stays asleep and skips the response.
	gamma, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 7})
	if err != nil {
		t.Fatal(err)
	}
	if gamma != nil {
		t.Error("dead node responded")
	}
	if n.stats.BrownOuts != 1 {
		t.Errorf("brownouts = %d, want 1", n.stats.BrownOuts)
	}
	if n.State() != StateSleep {
		t.Errorf("state %v, want sleep", n.State())
	}
}

func TestNodeSeqIncrements(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 600)
	for i := 0; i < 3; i++ {
		n.Harvest(100, rhoC, 60)
		if g, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 7}); err != nil || g == nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if n.seq != 3 {
		t.Errorf("seq = %d, want 3", n.seq)
	}
}

func TestPowerBudgetTotals(t *testing.T) {
	b := DefaultPowerBudget()
	if (b.Sleep+b.Listen+b.Decode+b.Backscatter) <= 0 || (b.Sleep+b.Listen+b.Decode+b.Backscatter) > 1e-3 {
		t.Errorf("total %v W should be µW-scale", (b.Sleep + b.Listen + b.Decode + b.Backscatter))
	}
	if b.Backscatter <= b.Sleep {
		t.Error("active power should exceed sleep power")
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateSleep: "sleep", StateListen: "listen",
		StateDecode: "decode", StateBackscatter: "backscatter",
		State(99): "invalid",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("State(%d) = %q", s, s.String())
		}
	}
}

func TestEnvSensorRoundTrip(t *testing.T) {
	s := NewEnvSensor(15, 3, 42)
	for i := 0; i < 10; i++ {
		p := s.Read()
		if len(p) != PayloadSize {
			t.Fatalf("payload size %d", len(p))
		}
		r, ok := DecodeReading(p)
		if !ok {
			t.Fatal("decode failed")
		}
		if r.Count != uint32(i) {
			t.Errorf("count %d, want %d", r.Count, i)
		}
		if math.Abs(r.TempC-15) > 2 {
			t.Errorf("temp %v implausible", r.TempC)
		}
		// 3 m depth ≈ 1294 mbar.
		if math.Abs(r.PressureMbar-1294) > 30 {
			t.Errorf("pressure %v implausible", r.PressureMbar)
		}
	}
	if _, ok := DecodeReading([]byte{1, 2}); ok {
		t.Error("short payload decoded")
	}
}

func TestCommandPing(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 300)
	gamma, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7, Payload: PingPayload()})
	if err != nil {
		t.Fatal(err)
	}
	if gamma == nil {
		t.Fatal("ping not acknowledged")
	}
	if n.stats.CommandsApplied != 1 {
		t.Errorf("commands applied %d", n.stats.CommandsApplied)
	}
}

func TestCommandSetInterval(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 300)
	gamma, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: link.BroadcastAddr, Payload: SetIntervalPayload(120)})
	if err != nil || gamma == nil {
		t.Fatalf("set-interval failed: %v", err)
	}
	if n.ReportInterval() != 120 {
		t.Errorf("interval %v, want 120", n.ReportInterval())
	}
}

func TestCommandMuteSilencesQueries(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 300)
	gamma, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7, Payload: MutePayload(60)})
	if err != nil {
		t.Fatal(err)
	}
	if gamma != nil {
		t.Error("mute must not be acknowledged (the point is silence)")
	}
	if !n.Muted() {
		t.Fatal("node not muted")
	}
	// Queries go unanswered while muted.
	g, err := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 7})
	if err != nil || g != nil {
		t.Errorf("muted node answered: %v %v", g, err)
	}
	// Time passes (via harvesting), the mute expires.
	n.Harvest(100, rhoC, 61)
	if n.Muted() {
		t.Fatal("mute did not expire")
	}
	if g, _ := n.HandleQuery(&link.Frame{Type: link.FrameQuery, Addr: 7}); g == nil {
		t.Error("node silent after mute expiry")
	}
}

func TestCommandErrors(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 300)
	if _, err := n.HandleCommand(&link.Frame{Type: link.FrameQuery, Addr: 7}); err == nil {
		t.Error("non-command accepted")
	}
	if _, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7}); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7, Payload: []byte{0x99}}); err == nil {
		t.Error("unknown opcode accepted")
	}
	if _, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7, Payload: []byte{CmdMute}}); err == nil {
		t.Error("missing argument accepted")
	}
	// Foreign address: silently ignored.
	if g, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 9, Payload: PingPayload()}); g != nil || err != nil {
		t.Error("foreign command not ignored")
	}
	// Dead node: no response, no error.
	dead := testNode(t)
	if g, err := dead.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7, Payload: PingPayload()}); g != nil || err != nil {
		t.Error("dead node should ignore commands")
	}
}

func TestClockAdvancesWithHarvest(t *testing.T) {
	n := testNode(t)
	if n.clock != 0 {
		t.Fatal("clock should start at zero")
	}
	n.Harvest(10, rhoC, 25)
	if n.clock != 25 {
		t.Errorf("clock %v, want 25", n.clock)
	}
}

func TestReportIntervalRateLimitsResponses(t *testing.T) {
	n := testNode(t)
	n.Harvest(100, rhoC, 600)
	if _, err := n.HandleCommand(&link.Frame{Type: link.FrameCmd, Addr: 7, Payload: SetIntervalPayload(120)}); err != nil {
		t.Fatal(err)
	}
	q := &link.Frame{Type: link.FrameQuery, Addr: 7}
	// First data response goes out.
	if g, err := n.HandleQuery(q); err != nil || g == nil {
		t.Fatalf("first poll failed: %v", err)
	}
	// 30 s later: declined.
	n.Harvest(100, rhoC, 30)
	if g, _ := n.HandleQuery(q); g != nil {
		t.Fatal("poll inside the interval should be declined")
	}
	// Past the interval: answered again.
	n.Harvest(100, rhoC, 120)
	if g, _ := n.HandleQuery(q); g == nil {
		t.Fatal("poll after the interval should be answered")
	}
}
