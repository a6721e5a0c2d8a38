package gateway

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"vab/internal/telemetry"
)

// quantizedReading returns a reading already on the wire grid, the
// form every real pipeline reading arrives in (sensors quantize at the
// source, SNR is rounded by the reader).
func quantizedReading(rng *rand.Rand) Reading {
	return Reading{
		NodeAddr:     byte(rng.Intn(256)),
		Seq:          byte(rng.Intn(256)),
		Count:        rng.Uint32(),
		TempC:        float64(rng.Intn(8001)-4000) / 100, // −40.00 .. 40.00 °C
		PressureMbar: float64(rng.Intn(65536)),
		SNRdB:        float64(rng.Intn(6001)-1000) / 100, // −10.00 .. 50.00 dB
		Time:         time.Unix(0, 1700000000000000000+rng.Int63n(1e12)).UTC(),
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(16)
		rds := make([]Reading, n)
		for i := range rds {
			rds[i] = quantizedReading(rng)
		}
		firstSeq := max(1, rng.Uint64()>>rng.Intn(64)) // every prefix length
		p, err := AppendSeqBatch(nil, firstSeq, rds)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		got, gotFirst, err := DecodeSeqBatchInto(nil, p)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if gotFirst != firstSeq {
			t.Fatalf("trial %d: first sequence %d, want %d", trial, gotFirst, firstSeq)
		}
		if len(got) != n {
			t.Fatalf("trial %d: got %d readings, want %d", trial, len(got), n)
		}
		for i := range rds {
			if got[i] != rds[i] {
				t.Fatalf("trial %d reading %d:\n got  %+v\n want %+v", trial, i, got[i], rds[i])
			}
		}
	}
}

func TestBatchWireSavings(t *testing.T) {
	// A batch of sequential readings from one node — the shape the
	// reader actually publishes — must cost at most half the 47 B/reading
	// of a per-reading frame (9-byte header, 38-byte float64 payload),
	// header and sequence prefix included.
	rng := rand.New(rand.NewSource(3))
	base := quantizedReading(rng)
	rds := make([]Reading, 16)
	for i := range rds {
		rd := base
		rd.Seq = base.Seq + byte(i)
		rd.Count = base.Count + uint32(i)
		rd.TempC = base.TempC + float64(i)/100
		rd.Time = base.Time.Add(time.Duration(i) * 250 * time.Millisecond)
		rds[i] = rd
	}
	p, err := AppendSeqBatch(nil, 1<<20, rds)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeFrame(MsgSeqBatch, p)
	if err != nil {
		t.Fatal(err)
	}
	const perReadingFrame = 47.0
	perReading := float64(len(frame)) / float64(len(rds))
	t.Logf("%.2f B/reading (batch of %d, frame %d B)", perReading, len(rds), len(frame))
	if perReading*2 > perReadingFrame {
		t.Errorf("wire cost %.2f B/reading is not ≥2x better than %.0f", perReading, perReadingFrame)
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rds := []Reading{quantizedReading(rng), quantizedReading(rng)}
	p, err := AppendSeqBatch(nil, 9, rds)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(p []byte) error {
		_, _, err := DecodeSeqBatchInto(nil, p)
		return err
	}
	if decode(nil) == nil {
		t.Error("empty payload accepted")
	}
	if decode(p[:len(p)-1]) == nil {
		t.Error("truncated payload accepted")
	}
	if decode(append(append([]byte(nil), p...), 0)) == nil {
		t.Error("trailing garbage accepted")
	}
	if decode([]byte{9, 0}) == nil {
		t.Error("zero-count batch accepted")
	}
	if decode(append([]byte{0}, p[1:]...)) == nil {
		t.Error("sequence 0 accepted")
	}
	if _, err := AppendSeqBatch(nil, 1, nil); err == nil {
		t.Error("empty batch encoded")
	}
	if _, err := AppendSeqBatch(nil, 1, []Reading{{TempC: math.NaN()}}); err == nil {
		t.Error("NaN reading encoded")
	}
	if _, err := AppendSeqBatch(nil, 1, []Reading{{TempC: 1e18}}); err == nil {
		t.Error("out-of-range reading encoded")
	}
}

func TestBatchOversizeSplits(t *testing.T) {
	// Enough worst-case readings to overflow one frame: the encoder must
	// refuse with ErrOversize rather than emit an unframeable payload.
	rng := rand.New(rand.NewSource(5))
	rds := make([]Reading, 64)
	for i := range rds {
		rd := quantizedReading(rng)
		// Spread timestamps days apart so every Δtime costs ~9 bytes.
		rd.Time = time.Unix(0, int64(i)*86400e9).UTC()
		rds[i] = rd
	}
	if _, err := AppendSeqBatch(nil, 1, rds); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize batch: %v", err)
	}
	// The server-side splitter must still deliver every reading, with
	// consecutive sequences across the split frames.
	s := &Server{logf: func(string, ...interface{}) {}}
	b := s.getBroadcast()
	s.encodeSeqFrames(b, rds, 100)
	b.seal()
	frames := b.frames
	var got []Reading
	for _, frame := range frames {
		var first uint64
		var err error
		n := len(got)
		got, first, err = DecodeSeqBatchInto(got, frame[frameHeaderSize:])
		if err != nil {
			t.Fatal(err)
		}
		if first != 100+uint64(n) {
			t.Fatalf("frame starts at sequence %d, want %d", first, 100+n)
		}
	}
	if len(got) != len(rds) {
		t.Fatalf("split delivered %d readings, want %d", len(got), len(rds))
	}
	for i := range rds {
		if got[i] != rds[i] {
			t.Fatalf("reading %d mismatch after split", i)
		}
	}
	if len(frames) < 2 {
		t.Errorf("expected the batch to split, got %d frame(s)", len(frames))
	}
}

func TestV2ClientReceivesBatches(t *testing.T) {
	s, _ := startServer(t)
	s.SetBatching(4, time.Hour) // deadline far away: flush only on size
	c, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(21))
	want := make([]Reading, 4)
	for i := range want {
		want[i] = quantizedReading(rng)
		s.Publish(want[i])
	}
	for i, w := range want {
		got, err := c.Next(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		if got != w || c.LastSeq() != uint64(i+1) {
			t.Fatalf("reading %d (seq %d):\n got  %+v\n want %+v", i, c.LastSeq(), got, w)
		}
	}
}

func TestDeadlineFlush(t *testing.T) {
	// A partial batch must reach subscribers once flushAfter elapses.
	s, _ := startServer(t)
	s.SetBatching(100, 20*time.Millisecond)
	c, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rd := quantizedReading(rand.New(rand.NewSource(23)))
	s.Publish(rd)
	got, err := c.Next(time.Now().Add(5 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got != rd {
		t.Fatalf("deadline flush:\n got  %+v\n want %+v", got, rd)
	}
}

func TestMixedSubscribers(t *testing.T) {
	// A plain and a resuming subscriber on the same flushes: both see the
	// same readings under the same sequences, in order.
	s, _ := startServer(t)
	s.SetBatching(4, time.Hour)
	plain, err := Dial(context.Background(), s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	resumed, err := Dial(context.Background(), s.Addr().String(), WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	rng := rand.New(rand.NewSource(24))
	want := make([]Reading, 8)
	for i := range want {
		want[i] = quantizedReading(rng)
		s.Publish(want[i])
	}
	for _, c := range []*Client{plain, resumed} {
		for i, w := range want {
			got, err := c.Next(time.Now().Add(5 * time.Second))
			if err != nil {
				t.Fatalf("reading %d: %v", i, err)
			}
			if got != w || c.LastSeq() != uint64(i+1) {
				t.Fatalf("reading %d (seq %d):\n got  %+v\n want %+v", i, c.LastSeq(), got, w)
			}
		}
	}
}

// TestPublishRejectsUnencodable: a reading the wire cannot carry is
// refused at Publish, takes no sequence number and is counted; its
// batch-mates are delivered with consecutive sequences.
func TestPublishRejectsUnencodable(t *testing.T) {
	s, _ := startServer(t)
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	s.SetBatching(4, time.Hour)
	c, err := Dial(context.Background(), s.Addr().String(), WithResume(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var want []Reading
	for i := uint64(1); i <= 9; i++ {
		rd := seqReading(i)
		if i == 3 {
			rd.SNRdB = math.Inf(-1)
			if err := s.Publish(rd); err == nil {
				t.Fatal("non-finite reading accepted")
			}
			continue
		}
		if err := s.Publish(rd); err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		want = append(want, rd)
	}
	for i, w := range want {
		got, err := c.Next(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
		if got != w || c.LastSeq() != uint64(i+1) {
			t.Fatalf("reading %d (seq %d):\n got  %+v\n want %+v", i, c.LastSeq(), got, w)
		}
	}
	if n := s.NextSeq(); n != uint64(len(want))+1 {
		t.Errorf("next sequence %d, want %d (a rejected reading took a number)", n, len(want)+1)
	}
	if got := reg.Counter("vab_gateway_readings_rejected_total", "").Value(); got != 1 {
		t.Errorf("vab_gateway_readings_rejected_total = %d, want 1", got)
	}
}
