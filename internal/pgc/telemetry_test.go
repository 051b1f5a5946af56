package pgc

import (
	"runtime"
	"testing"
	"time"

	"espresso/internal/nvm"
	"espresso/internal/telemetry"
)

// TestParallelWorkerTimesAndSpans pins the per-worker observability of a
// collection marking on several workers: Result carries one mark
// duration per worker, the same cycle lands in the heap's span recorder
// as one gc.mark.worker span per worker, and the gc + redo subsystems
// account for the cycle's device traffic exactly.
func TestParallelWorkerTimesAndSpans(t *testing.T) {
	const workers = 4
	h, reg := newHeap(t, 4<<20)
	buildGarbageBelt(t, h, reg, 250)
	buildGraph(t, h, reg, 77, 600, 6)
	tel := telemetry.New()
	h.SetTelemetry(tel)

	prev := runtime.GOMAXPROCS(workers)
	r, err := Collect(h, NoRoots{})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MarkWorkerTimes) != workers {
		t.Fatalf("MarkWorkerTimes has %d entries, want %d", len(r.MarkWorkerTimes), workers)
	}
	var markBusy time.Duration
	for w, d := range r.MarkWorkerTimes {
		if d < 0 {
			t.Fatalf("mark worker %d: negative productive time %v (parking over-subtracted)", w, d)
		}
		markBusy += d
	}
	if markBusy <= 0 {
		t.Fatal("no mark worker recorded productive time")
	}

	snap := tel.Snapshot()
	if got := snap.Counter(telemetry.CtrGCCycles.Name()); got != 1 {
		t.Fatalf("gc.cycles = %d, want 1", got)
	}
	markSpans := 0
	for _, sp := range snap.Spans {
		if sp.Name == telemetry.SpanGCMarkWorker {
			markSpans++
			if sp.Worker < 0 || sp.Worker >= workers {
				t.Fatalf("%s span tagged worker %d", sp.Name, sp.Worker)
			}
		}
	}
	if markSpans != workers {
		t.Fatalf("%d gc.mark.worker spans, want %d", markSpans, workers)
	}

	// Device attribution: on a quiescent heap every read and write of the
	// cycle belongs to the collector, so the gc + redo subsystems must
	// account for the whole-cycle delta exactly.
	gcReads := snap.Counter(telemetry.DevCounter(nvm.SubGC, 0).Name()) +
		snap.Counter(telemetry.DevCounter(nvm.SubRedo, 0).Name())
	gcWrites := snap.Counter(telemetry.DevCounter(nvm.SubGC, 1).Name()) +
		snap.Counter(telemetry.DevCounter(nvm.SubRedo, 1).Name())
	if gcReads != r.DeviceStats.Reads || gcWrites != r.DeviceStats.Writes {
		t.Fatalf("gc+redo attribution r/w %d/%d != cycle device stats %d/%d",
			gcReads, gcWrites, r.DeviceStats.Reads, r.DeviceStats.Writes)
	}
}

// TestCollectSTWSpans pins the stop-the-world collector's timeline: one
// gc.stw span covering the cycle, with the mark/summarize/compact/redo
// phases nested inside it.
func TestCollectSTWSpans(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	buildGraph(t, h, reg, 42, 500, 5)
	tel := telemetry.New()
	h.SetTelemetry(tel)
	if _, err := Collect(h, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	stw := snap.SpanTotal(telemetry.SpanGCSTW)
	if stw <= 0 {
		t.Fatal("gc.stw span missing")
	}
	inner := snap.SpanTotal(telemetry.SpanGCMark) + snap.SpanTotal(telemetry.SpanGCSummarize) +
		snap.SpanTotal(telemetry.SpanGCCompact) + snap.SpanTotal(telemetry.SpanGCRedo)
	if inner <= 0 || inner > stw {
		t.Fatalf("inner phases %v must be positive and nest in gc.stw %v", inner, stw)
	}
	if got := snap.Counter(telemetry.CtrGCCycles.Name()); got != 1 {
		t.Fatalf("gc.cycles = %d, want 1", got)
	}
}
