package gateway

import (
	"encoding/binary"
	"testing"
	"time"
)

// FuzzResumeFrame exercises the resume-family payload decoders against
// arbitrary bytes: they must never panic, and accepted payloads must
// survive a re-encode/re-decode cycle with identical values (semantic
// round trip — non-canonical varints re-encode canonically, as in
// FuzzSeqBatchDecode).
func FuzzResumeFrame(f *testing.F) {
	f.Add(AppendResume(nil, 0))
	f.Add(AppendResume(nil, 1<<40))
	f.Add(AppendResumeAck(nil, 7, 12))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if lastSeq, err := DecodeResume(p); err == nil {
			got, err := DecodeResume(AppendResume(nil, lastSeq))
			if err != nil || got != lastSeq {
				t.Fatalf("resume round trip: %d -> %d, %v", lastSeq, got, err)
			}
		}
		if from, next, err := DecodeResumeAck(p); err == nil {
			if next < from {
				t.Fatalf("decoder accepted inverted window [%d,%d)", from, next)
			}
			f2, n2, err := DecodeResumeAck(AppendResumeAck(nil, from, next))
			if err != nil || f2 != from || n2 != next {
				t.Fatalf("ack round trip: (%d,%d) -> (%d,%d), %v", from, next, f2, n2, err)
			}
		}
	})
}

// FuzzSeqBatchDecode: arbitrary MsgSeqBatch payloads must decode without
// panicking, and accepted payloads must survive a re-encode/re-decode
// cycle with the same first sequence and identical readings. The block
// corpus of FuzzBatchDecode is seeded too, behind a sequence prefix.
func FuzzSeqBatchDecode(f *testing.F) {
	if p, err := AppendSeqBatch(nil, 1, []Reading{testReading()}); err == nil {
		f.Add(p)
	}
	rd2 := testReading()
	rd2.Seq++
	rd2.Count++
	rd2.Time = rd2.Time.Add(250 * time.Millisecond)
	if p, err := AppendSeqBatch(nil, 99, []Reading{testReading(), rd2}); err == nil {
		f.Add(p)
	}
	f.Add([]byte{1})
	f.Add([]byte{})
	for i, block := range blockSeeds() {
		f.Add(append(binary.AppendUvarint(nil, uint64(1)<<(7*i)), block...))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		rds, firstSeq, err := DecodeSeqBatchInto(nil, p)
		if err != nil {
			return
		}
		if firstSeq == 0 {
			t.Fatal("decoder accepted firstSeq 0")
		}
		re, err := AppendSeqBatch(nil, firstSeq, rds)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v", err)
		}
		rds2, f2, err := DecodeSeqBatchInto(nil, re)
		if err != nil || f2 != firstSeq {
			t.Fatalf("re-decode: firstSeq %d -> %d, %v", firstSeq, f2, err)
		}
		if len(rds2) != len(rds) {
			t.Fatalf("re-decode count %d, want %d", len(rds2), len(rds))
		}
		for i := range rds {
			if !rds2[i].Time.Equal(rds[i].Time) {
				t.Fatalf("reading %d time mismatch", i)
			}
			a, b := rds[i], rds2[i]
			a.Time, b.Time = time.Time{}, time.Time{}
			if a != b {
				t.Fatalf("reading %d mismatch:\n got  %+v\n want %+v", i, b, a)
			}
		}
	})
}
