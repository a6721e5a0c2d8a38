package netfaults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vab/internal/faults"
)

// heavy is a profile with every class hot, for schedule tests. Timing
// magnitudes are zero so tests never sleep.
func heavy() Profile {
	return Profile{
		Name: "heavy", DropPerOp: 0.1, StallPerOp: 0.2,
		PartialPerOp: 0.15, CorruptPerOp: 0.3,
	}
}

// TestPlanPure: the plan for (conn, op, dir) must not depend on call
// order, history, or concurrency — the property the whole package exists
// to provide.
func TestPlanPure(t *testing.T) {
	eng, err := NewEngine(42, heavy())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		conn, op uint64
		dir      uint64
	}
	want := map[key]opPlan{}
	for conn := uint64(0); conn < 4; conn++ {
		for op := uint64(0); op < 64; op++ {
			for _, dir := range []uint64{dirRead, dirWrite} {
				want[key{conn, op, dir}] = eng.plan(conn, op, dir)
			}
		}
	}
	// Re-plan everything concurrently, in reverse, on a second engine with
	// the same seed: every plan must match.
	eng2, _ := NewEngine(42, heavy())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, v := range want {
				if got := eng2.plan(k.conn, k.op, k.dir); got != v {
					t.Errorf("plan(%d,%d,%#x) diverged: %+v vs %+v", k.conn, k.op, k.dir, got, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSeedAndConnChangeSchedule: different seeds and different conn
// indices must produce different schedules (statistically: at least one
// differing plan over a few hundred ops).
func TestSeedAndConnChangeSchedule(t *testing.T) {
	a, _ := NewEngine(1, heavy())
	b, _ := NewEngine(2, heavy())
	diff := 0
	for op := uint64(0); op < 256; op++ {
		if a.plan(0, op, dirRead) != b.plan(0, op, dirRead) {
			diff++
		}
		if a.plan(0, op, dirRead) != a.plan(1, op, dirRead) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed and conn index do not perturb the schedule")
	}
}

// transfer pushes payload through a wrapped pipe and returns what the
// reader saw (concatenated) plus whether either side errored.
func transfer(t *testing.T, eng *Engine, connIdx uint64, payload []byte) []byte {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	wrapped := eng.WrapIndexed(server, connIdx)

	done := make(chan []byte, 1)
	go func() {
		var got bytes.Buffer
		buf := make([]byte, 16)
		for {
			n, err := wrapped.Read(buf)
			got.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- got.Bytes()
	}()
	for off := 0; off < len(payload); off += 16 {
		end := off + 16
		if end > len(payload) {
			end = len(payload)
		}
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		if _, err := client.Write(payload[off:end]); err != nil {
			break
		}
	}
	client.Close()
	select {
	case got := <-done:
		return got
	case <-time.After(5 * time.Second):
		t.Fatal("transfer did not finish")
		return nil
	}
}

// TestReplayExactCorruption: the same seeded engine applied to the same
// byte stream yields the same received bytes, flips and all.
func TestReplayExactCorruption(t *testing.T) {
	prof := Profile{Name: "corrupt", CorruptPerOp: 0.5}
	payload := bytes.Repeat([]byte{0xA5, 0x5A, 0x0F, 0xF0}, 64)

	mk := func() []byte {
		eng, err := NewEngine(77, prof)
		if err != nil {
			t.Fatal(err)
		}
		return transfer(t, eng, 3, payload)
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatalf("two replays diverged:\n%x\n%x", a, b)
	}
	if bytes.Equal(a, payload) {
		t.Fatal("50% corruption left the stream untouched")
	}
}

// TestInjectedDrop: a certain-drop profile kills the first operation with
// ErrInjected and closes the underlying conn.
func TestInjectedDrop(t *testing.T) {
	eng, _ := NewEngine(1, Profile{Name: "drop", DropPerOp: 1})
	client, server := net.Pipe()
	defer client.Close()
	wrapped := eng.Wrap(server)
	if _, err := wrapped.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read: %v, want ErrInjected", err)
	}
	// The underlying conn must be dead: the peer sees EOF/closed.
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer still readable after injected drop")
	}
	if eng.Stats().Drops == 0 {
		t.Fatal("drop not counted")
	}
}

// TestPartialWrite: a certain-partial profile delivers a strict prefix and
// errors, leaving the peer with a torn frame.
func TestPartialWrite(t *testing.T) {
	eng, _ := NewEngine(5, Profile{Name: "partial", PartialPerOp: 1})
	client, server := net.Pipe()
	defer client.Close()
	wrapped := eng.Wrap(server)

	got := make(chan int, 1)
	go func() {
		buf := make([]byte, 256)
		total := 0
		for {
			client.SetReadDeadline(time.Now().Add(2 * time.Second))
			n, err := client.Read(buf)
			total += n
			if err != nil {
				break
			}
		}
		got <- total
	}()
	payload := make([]byte, 100)
	n, err := wrapped.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write: %v, want ErrInjected", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("partial write wrote %d of %d, want a strict prefix", n, len(payload))
	}
	if total := <-got; total != n {
		t.Fatalf("peer received %d bytes, writer reported %d", total, n)
	}
}

// TestStallObserved: timing faults go through the engine's sleep hook and
// are capped, never lost.
func TestStallObserved(t *testing.T) {
	eng, _ := NewEngine(9, Profile{Name: "stall", StallPerOp: 1, StallMs: 50})
	var slept []time.Duration
	var mu sync.Mutex
	eng.sleep = func(d time.Duration) {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
	}
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	wrapped := eng.Wrap(server)
	go func() {
		client.Write([]byte{1})
	}()
	buf := make([]byte, 1)
	if _, err := wrapped.Read(buf); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Fatalf("slept %v, want one 50ms stall", slept)
	}
	if eng.Stats().Stalls == 0 {
		t.Fatal("stall not counted")
	}
}

// TestListenerAssignsIndices: accepted conns join the schedule in accept
// order with distinct indices.
func TestListenerAssignsIndices(t *testing.T) {
	eng, _ := NewEngine(3, Profile{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := eng.Listen(ln)
	defer wrapped.Close()

	for want := uint64(0); want < 3; want++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sc, err := wrapped.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		if got := sc.(*Conn).Index(); got != want {
			t.Fatalf("accept %d got index %d", want, got)
		}
	}
}

// TestParseAndScale: preset parsing mirrors faults.Parse semantics.
func TestParseAndScale(t *testing.T) {
	if p, err := Parse(""); err != nil || p != (Profile{Name: "none"}) {
		t.Fatalf("empty spec: %+v %v", p, err)
	}
	p, err := Parse("blips:0.5+lossy")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropPerOp != 0.01 {
		t.Fatalf("blips:0.5 drop = %g, want 0.01", p.DropPerOp)
	}
	if p.CorruptPerOp != 0.01 || p.PartialPerOp != 0.005 {
		t.Fatalf("lossy merge wrong: %+v", p)
	}
	if _, err := Parse("krakens"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if _, err := Parse("blips:1.5"); err == nil {
		t.Fatal("out-of-range intensity accepted")
	}
	ch := Chaos(0)
	if ch.DropPerOp != 0 || ch.CorruptPerOp != 0 || ch.PartialPerOp != 0 || ch.StallPerOp != 0 {
		t.Fatalf("Chaos(0) still injects: %+v", ch)
	}
	if full := Chaos(1); full.DropPerOp == 0 || full.CorruptPerOp == 0 {
		t.Fatalf("Chaos(1) inert: %+v", full)
	}
}

// TestValidate rejects impossible profiles at engine construction.
func TestValidate(t *testing.T) {
	if _, err := NewEngine(1, Profile{DropPerOp: 1.5}); err == nil {
		t.Fatal("DropPerOp 1.5 accepted")
	}
	if _, err := NewEngine(1, Profile{StallMs: -1}); err == nil {
		t.Fatal("negative stall accepted")
	}
}

// TestSpecGrammarMatchesFaults runs faults.Parse and Parse over one table
// of specs, written with {a}/{A}/{b} standing for a preset name of each
// package (lower, upper case). Both parsers must accept or reject the same
// specs, and an accepted spec must resolve to what its canonical form
// resolves to in each package — the same preset names at the same
// intensities, whatever the case and whitespace.
func TestSpecGrammarMatchesFaults(t *testing.T) {
	acoustic := strings.NewReplacer("{a}", "shrimp", "{A}", "SHRIMP", "{b}", "brownout")
	network := strings.NewReplacer("{a}", "blips", "{A}", "BLIPS", "{b}", "lossy")
	cases := []struct {
		spec, canon string
		ok          bool
	}{
		{"", "", true},
		{"   ", "", true},
		{"{a}", "{a}:1", true},
		{"{A}", "{a}:1", true},
		{" {a} ", "{a}:1", true},
		{"{a} :0.5", "{a}:0.5", true},
		{"{a}: 0.5", "{a}:0.5", true},
		{"{a}:0.5 ", "{a}:0.5", true},
		{"{A} : 0.5 + {b}", "{a}:0.5+{b}:1", true},
		{"{a}:0+{b}:1", "{a}:0+{b}:1", true},
		{"chaos", "chaos:1", true},
		{"CHAOS:0.25", "chaos:0.25", true},
		{"chaos:x", "", false},
		{"{a}:-0.1", "", false},
		{"{a}:1.5", "", false},
		{"{a}:NaN", "", false},
		{"{a}:", "", false},
		{":0.5", "", false},
		{"{a}+", "", false},
		{"+{b}", "", false},
		{"{a}++{b}", "", false},
		{"krakens", "", false},
	}
	for _, c := range cases {
		sc, ferr := faults.Parse(acoustic.Replace(c.spec), 1)
		p, nerr := Parse(network.Replace(c.spec))
		if (ferr == nil) != c.ok || (nerr == nil) != c.ok {
			t.Errorf("%q: faults err %v, netfaults err %v; want accepted=%v", c.spec, ferr, nerr, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		wantSc, err := faults.Parse(acoustic.Replace(c.canon), 1)
		if err != nil {
			t.Fatalf("canonical %q: %v", c.canon, err)
		}
		wantP, err := Parse(network.Replace(c.canon))
		if err != nil {
			t.Fatalf("canonical %q: %v", c.canon, err)
		}
		if !reflect.DeepEqual(sc.Faults, wantSc.Faults) {
			t.Errorf("%q: faults resolved %+v, want %+v", c.spec, sc.Faults, wantSc.Faults)
		}
		p.Name, wantP.Name = "", ""
		if p != wantP {
			t.Errorf("%q: netfaults resolved %+v, want %+v", c.spec, p, wantP)
		}
	}
}
