package blackbox

import (
	"fmt"
	"testing"

	"espresso/internal/nvm"
)

const testRing = HeaderSize + 8*RecordSize // 8-slot ring

func newRing(t *testing.T, size int) (*nvm.Device, *Recorder) {
	t.Helper()
	dev := nvm.New(nvm.Config{Size: size + 128, Mode: nvm.Tracked})
	if err := Format(dev, 64, size); err != nil {
		t.Fatal(err)
	}
	r, err := Attach(dev, 64, size)
	if err != nil {
		t.Fatal(err)
	}
	return dev, r
}

// TestRoundtrip: appended events decode back in order with their
// payloads, and the timeline metadata is right for an unwrapped ring.
func TestRoundtrip(t *testing.T) {
	dev, r := newRing(t, testRing)
	r.Append(EvHeapCreate, 1, 2, 3)
	r.Append(EvGCBegin, 0, 7, 0)
	r.Append(EvGCEnd, 10, 4, 99)
	tl, err := Decode(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 3 || tl.FirstSeq != 1 || tl.Wrapped() || tl.Discarded != 0 {
		t.Fatalf("timeline = %+v", tl)
	}
	want := []struct {
		kind       uint64
		p0, p1, p2 uint64
	}{{EvHeapCreate, 1, 2, 3}, {EvGCBegin, 0, 7, 0}, {EvGCEnd, 10, 4, 99}}
	for i, w := range want {
		e := tl.Events[i]
		if e.Seq != uint64(i+1) || e.Kind != w.kind || e.P0 != w.p0 || e.P1 != w.p1 || e.P2 != w.p2 {
			t.Fatalf("event %d = %+v, want %+v", i, e, w)
		}
		if e.Shard != -1 {
			t.Fatalf("event %d shard = %d, want -1 (untagged)", i, e.Shard)
		}
	}
}

// TestTornTailTruncated: a record whose checksum does not verify (a torn
// line) is dropped, and with it everything after — the reader never
// fabricates a suffix.
func TestTornTailTruncated(t *testing.T) {
	dev, r := newRing(t, testRing)
	for i := 0; i < 5; i++ {
		r.Append(EvGCBegin, uint64(i), 0, 0)
	}
	// Tear record seq=4 (slot 3): flip a payload byte without fixing the
	// checksum.
	slot := 64 + HeaderSize + 3*RecordSize
	dev.WriteU64(slot+rP0, 0xDEAD)
	dev.Flush(slot, RecordSize)

	tl, err := Decode(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 3 {
		t.Fatalf("decoded %d events, want 3 (torn seq 4 truncates 4 and 5)", len(tl.Events))
	}
	for i, e := range tl.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, e.Seq)
		}
	}
	if tl.Discarded != 1 {
		t.Fatalf("discarded = %d, want 1 (valid seq 5 beyond the gap)", tl.Discarded)
	}
}

// TestWrap: appending past capacity overwrites the oldest slots; the
// decode returns the newest capacity-sized window, contiguous.
func TestWrap(t *testing.T) {
	dev, r := newRing(t, testRing)
	const n = 8 + 5 // wrap by 5
	for i := 0; i < n; i++ {
		r.Append(EvGCBegin, uint64(i), 0, 0)
	}
	tl, err := Decode(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 8 || tl.FirstSeq != n-8+1 || !tl.Wrapped() {
		t.Fatalf("timeline = first %d, %d events, wrapped %v", tl.FirstSeq, len(tl.Events), tl.Wrapped())
	}
	for i, e := range tl.Events {
		if wantSeq := uint64(n - 8 + 1 + i); e.Seq != wantSeq || e.P0 != wantSeq-1 {
			t.Fatalf("event %d = seq %d p0 %d, want seq %d", i, e.Seq, e.P0, wantSeq)
		}
	}
}

// TestAttachResumesAndScrubs: re-attaching resumes the sequence after
// the last contiguous record, and scrubs any valid-but-stranded records
// beyond a gap so they can never resurface as fabricated history once
// fresh appends close the gap.
func TestAttachResumesAndScrubs(t *testing.T) {
	dev, r := newRing(t, testRing)
	for i := 0; i < 5; i++ {
		r.Append(EvGCBegin, uint64(i), 0, 0)
	}
	// Tear seq 4: slot 3 checksum breaks, seq 5 is stranded beyond it.
	slot := 64 + HeaderSize + 3*RecordSize
	dev.WriteU64(slot+rCksum, 0)
	dev.Flush(slot, RecordSize)

	r2, err := Attach(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Seq() != 3 {
		t.Fatalf("resumed seq = %d, want 3 (last contiguous)", r2.Seq())
	}
	// New seq-4 and seq-5 appends must be the ones decoded — not the
	// stale pre-crash seq 5.
	r2.Append(EvRedoCommit, 1000, 0, 0)
	r2.Append(EvRedoCommit, 1001, 0, 0)
	tl, err := Decode(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 5 || tl.Discarded != 0 {
		t.Fatalf("decoded %d events, %d discarded; want 5, 0", len(tl.Events), tl.Discarded)
	}
	if e := tl.Events[4]; e.Seq != 5 || e.Kind != EvRedoCommit || e.P0 != 1001 {
		t.Fatalf("event 5 = %+v, want fresh redo.commit", e)
	}
}

// TestDecodeEmptyAndGarbage: an all-zero ring decodes empty; a ring full
// of garbage (no valid checksums) decodes empty rather than erroring —
// decode is forensic, not validating.
func TestDecodeEmptyAndGarbage(t *testing.T) {
	dev, _ := newRing(t, testRing)
	tl, err := Decode(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 0 {
		t.Fatalf("empty ring decoded %d events", len(tl.Events))
	}
	for i := 0; i < 8; i++ {
		slot := 64 + HeaderSize + i*RecordSize
		for w := 0; w < RecordSize; w += 8 {
			dev.WriteU64(slot+w, uint64(0x5A5A5A5A00+i*8+w))
		}
	}
	dev.FlushAll()
	tl, err = Decode(dev, 64, testRing)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Events) != 0 {
		t.Fatalf("garbage ring decoded %d events", len(tl.Events))
	}
}

// TestDecodeRejectsBadHeader: a ring whose header does not carry the
// magic/version is an error — the caller pointed Decode at the wrong
// offset or a pre-format image.
func TestDecodeRejectsBadHeader(t *testing.T) {
	dev := nvm.New(nvm.Config{Size: testRing + 128, Mode: nvm.Tracked})
	if _, err := Decode(dev, 64, testRing); err == nil {
		t.Fatal("unformatted ring decoded without error")
	}
}

// TestCrashAtEveryFlush: the journal's crash contract, in miniature. A
// DRAM mirror records what was appended; for every flush boundary k, the
// run is crashed at flush k and the decoded timeline must be a strict
// prefix of the mirror — checksum-valid, sequence-contiguous, never
// fabricated. (The full-system sweep is pgc's TestCrashSweepFlightRecorder.)
func TestCrashAtEveryFlush(t *testing.T) {
	const events = 20
	type crashPoint struct{ k uint64 }
	// First pass: count flushes for the whole run.
	dev, r := newRing(t, testRing)
	for i := 0; i < events; i++ {
		r.Append(EvGCBegin, uint64(i), uint64(i*2), 0)
	}
	total := dev.Stats().Flushes

	for k := uint64(1); k <= total; k++ {
		k := k
		t.Run(fmt.Sprintf("flush%d", k), func(t *testing.T) {
			dev := nvm.New(nvm.Config{Size: testRing + 128, Mode: nvm.Tracked})
			if err := Format(dev, 64, testRing); err != nil {
				t.Fatal(err)
			}
			r, err := Attach(dev, 64, testRing)
			if err != nil {
				t.Fatal(err)
			}
			var mirror []Record
			r.SetMirror(func(rec Record) { mirror = append(mirror, rec) })
			dev.SetFlushHook(func(count uint64) {
				if count == k {
					panic(crashPoint{k})
				}
			})
			func() {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(crashPoint); !ok {
							panic(p)
						}
					}
				}()
				for i := 0; i < events; i++ {
					r.Append(EvGCBegin, uint64(i), uint64(i*2), 0)
				}
			}()
			dev.SetFlushHook(nil)
			img := dev.CrashImage(nvm.CrashFlushedOnly, 0)
			dead := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
			tl, err := Decode(dead, 64, testRing)
			if err != nil {
				t.Fatal(err)
			}
			// Strict prefix of the mirror, modulo the ring window: the
			// decode may start later than seq 1 (overwritten slots) but
			// every decoded record must match the mirror at its seq.
			for _, e := range tl.Events {
				if e.Seq == 0 || e.Seq > uint64(len(mirror)) {
					t.Fatalf("decoded seq %d beyond mirror (%d appended)", e.Seq, len(mirror))
				}
				m := mirror[e.Seq-1]
				if e.Kind != m.Kind || e.P0 != m.P0 || e.P1 != m.P1 || e.P2 != m.P2 {
					t.Fatalf("decoded seq %d = %+v, mirror has %+v", e.Seq, e, m)
				}
			}
			for i := 1; i < len(tl.Events); i++ {
				if tl.Events[i].Seq != tl.Events[i-1].Seq+1 {
					t.Fatalf("non-contiguous decode at %d", i)
				}
			}
		})
	}
}
