package pgc

import (
	"testing"
	"time"

	"espresso/internal/nvm"
	"espresso/internal/telemetry"
)

// TestParallelWorkerTimesAndSpans pins the per-worker observability of a
// parallel concurrent collection: Result carries one mark duration and
// one fix duration per worker, and the same cycle lands in the heap's
// span recorder as a full phase timeline, nested inside the cycle's wall
// time, plus per-worker spans.
func TestParallelWorkerTimesAndSpans(t *testing.T) {
	const workers = 4
	h, reg := newHeap(t, 4<<20)
	buildGarbageBelt(t, h, reg, 250)
	buildGraph(t, h, reg, 77, 600, 6)
	tel := telemetry.New()
	h.SetTelemetry(tel)

	t0 := time.Now()
	r, err := CollectConcurrent(h, NoRoots{}, nil, workers)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if r.MovedObjects == 0 {
		t.Fatal("workload compacted nothing; the fix pass is untested")
	}
	if len(r.MarkWorkerTimes) != workers {
		t.Fatalf("MarkWorkerTimes has %d entries, want %d", len(r.MarkWorkerTimes), workers)
	}
	if len(r.CompactFixWorkerTimes) != workers {
		t.Fatalf("CompactFixWorkerTimes has %d entries, want %d", len(r.CompactFixWorkerTimes), workers)
	}
	var markBusy, fixBusy time.Duration
	for w, d := range r.MarkWorkerTimes {
		if d < 0 {
			t.Fatalf("mark worker %d: negative productive time %v (parking over-subtracted)", w, d)
		}
		markBusy += d
	}
	for w, d := range r.CompactFixWorkerTimes {
		if d <= 0 {
			t.Fatalf("fix worker %d: duration %v, want > 0 (every worker walks its shards)", w, d)
		}
		fixBusy += d
	}
	if markBusy <= 0 {
		t.Fatal("no mark worker recorded productive time")
	}

	snap := tel.Snapshot()
	if got := snap.Counter(telemetry.CtrGCCycles.Name()); got != 1 {
		t.Fatalf("gc.cycles = %d, want 1", got)
	}
	perWorker := map[string]int{}
	for _, sp := range snap.Spans {
		if sp.Name == telemetry.SpanGCMarkWorker || sp.Name == telemetry.SpanGCFixWorker {
			perWorker[sp.Name]++
			if sp.Worker < 0 || sp.Worker >= workers {
				t.Fatalf("%s span tagged worker %d", sp.Name, sp.Worker)
			}
		}
	}
	if perWorker[telemetry.SpanGCMarkWorker] != workers || perWorker[telemetry.SpanGCFixWorker] != workers {
		t.Fatalf("per-worker spans: mark %d, fix %d, want %d each",
			perWorker[telemetry.SpanGCMarkWorker], perWorker[telemetry.SpanGCFixWorker], workers)
	}
	for _, name := range []string{
		telemetry.SpanGCHandshake, telemetry.SpanGCMark, telemetry.SpanGCRemark,
		telemetry.SpanGCSummarize, telemetry.SpanGCCompact, telemetry.SpanGCRedo,
		telemetry.SpanGCFinalPause,
	} {
		if snap.SpanTotal(name) <= 0 {
			t.Fatalf("phase span %s missing from the timeline", name)
		}
	}
	// The phases are disjoint intervals of the cycle, so they sum to no
	// more than its measured wall time, and the inner final-pause phases
	// nest inside the recorded pause.
	fp := snap.SpanTotal(telemetry.SpanGCFinalPause)
	if sum := snap.SpanTotal(telemetry.SpanGCHandshake) + snap.SpanTotal(telemetry.SpanGCMark) + fp; sum > wall {
		t.Fatalf("handshake + mark + final pause = %v > the cycle's wall time %v", sum, wall)
	}
	inner := snap.SpanTotal(telemetry.SpanGCRemark) + snap.SpanTotal(telemetry.SpanGCSummarize) +
		snap.SpanTotal(telemetry.SpanGCCompact) + snap.SpanTotal(telemetry.SpanGCRedo)
	if inner > fp {
		t.Fatalf("inner phases sum to %v > final pause %v", inner, fp)
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
