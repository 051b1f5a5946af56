package pgc

import (
	"fmt"
	"time"

	"espresso/internal/nvm"
	"espresso/internal/pgc/concurrent"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// World is the mutator-handshake hook the concurrent collector pauses
// through. StopWorld returns with every mutator parked at a safepoint
// (outside any heap operation) and the collector exclusive; StartWorld
// releases them. core.Runtime adapts its safepoint lock; callers that
// already guarantee quiescence (tests, single-threaded tools) pass
// StoppedWorld.
type World interface {
	StopWorld()
	StartWorld()
}

// StoppedWorld is the World for callers whose mutators are already
// stopped — the stop-the-world contract pgc.Collect has always assumed.
type StoppedWorld struct{}

// StopWorld is a no-op: nothing is running.
func (StoppedWorld) StopWorld() {}

// StartWorld is a no-op.
func (StoppedWorld) StartWorld() {}

// CollectConcurrent runs a crash-consistent collection of h with marking
// concurrent to the mutators — the pause holds only final remark,
// summary, compaction, and the redo-log finish.
//
// The protocol:
//
//  1. Initial handshake (brief pause): persist the open region tops and
//     detach PLABs and recycled holes (pheap.PrepareForCollection),
//     snapshot the region-top table, capture the root set, clear both
//     bitmaps, arm the SATB pre-write barrier, and persist the GC-phase
//     word as mid-concurrent-mark.
//  2. Concurrent mark: trace the graph below the snapshot tops while
//     mutators keep bump-allocating above them (allocate-black) and the
//     barrier records every overwritten referent; drain those records
//     until a drain comes back empty.
//  3. Final pause: one last SATB drain + trace, the allocate-black sweep
//     over everything allocated since the snapshot, then exactly the STW
//     collector's tail — persist bitmaps, stamp gcActive (after which
//     the phase word is retired: the persisted bitmap now carries the
//     cycle), summarize, compact, finish through the redo log, patch
//     roots, republish holes.
//
// Crash consistency: before gcActive is set the heap is untouched — a
// crash leaves the phase word announcing the aborted mark, which
// RecoverIfNeeded clears (fall back to a fresh cycle). After gcActive is
// set the persisted bitmap drives the standard resumable recovery.
//
// Marking fans out over workers work-stealing tracers (which also drain
// the SATB and remset-delta buffers concurrently with tracing), and the
// compaction pause shards its reference-fix and fill passes over the same
// count; workers < 1 means 1. The heap image it produces is byte-identical
// to Collect's, and for every workers value, on a quiescent heap: both
// collectors run the same tracer, the summary is a pure function of the
// bitmap, marking publishes idempotent bitmap bits and a commutative
// CAS-max card summary, and the compaction passes only reorder operations
// on disjoint cache lines.
func CollectConcurrent(h *pheap.Heap, ext Rooter, w World, workers int) (Result, error) {
	if workers < 1 {
		workers = 1
	}
	if !h.TryBeginCollection() {
		return Result{}, fmt.Errorf("pgc: another collection of this heap is already running")
	}
	defer h.EndCollection()
	if h.GCActive() {
		return Result{}, fmt.Errorf("pgc: heap is mid-collection; run RecoverIfNeeded first")
	}
	if ext == nil {
		ext = NoRoots{}
	}
	if w == nil {
		w = StoppedWorld{}
	}
	dev := h.Device()
	statsBefore := dev.Stats()
	tel := h.Telemetry() // nil when telemetry is disabled; every method no-ops
	fr := h.FlightRecorder()
	var pauseStats nvm.Stats

	// Phase 1: initial handshake.
	w.StopWorld()
	pause1Start := time.Now()
	p1Before := dev.Stats()
	if h.GCPhase() != pheap.GCPhaseIdle {
		h.SetGCPhase(pheap.GCPhaseIdle) // stale announcement from an aborted cycle
	}
	h.PrepareForCollection()
	h.MarkBitmap().ClearAll()
	h.RegionBitmap().ClearAll()
	snap := h.SnapshotRegionTops()
	roots := heapRoots(h, ext)
	h.BeginConcurrentMark(snap)
	h.SetGCPhase(pheap.GCPhaseConcurrentMark)
	fr.Append(blackbox.EvGCBegin, 1, h.GlobalTS(), 0)
	pauseStats = pauseStats.Add(dev.Stats().Sub(p1Before))
	pause1 := time.Since(pause1Start)
	w.StartWorld()
	tel.RecordSpan(telemetry.SpanGCHandshake, -1, -1, pause1Start, pause1)

	// Phase 2: concurrent mark. Any error aborts the cycle: disarm the
	// barrier under a pause and clear the phase word — nothing has moved.
	markStart := time.Now()
	mk := concurrent.NewMarker(h, snap, workers)
	defer mk.Release()
	abort := func(err error) (Result, error) {
		w.StopWorld()
		h.EndConcurrentMark()
		h.SetGCPhase(pheap.GCPhaseIdle)
		fr.Append(blackbox.EvGCAbort, h.GlobalTS(), 0, 0)
		w.StartWorld()
		return Result{}, err
	}
	if err := mk.MarkRoots(roots); err != nil {
		return abort(err)
	}
	if err := mk.ConcurrentDrainLoop(); err != nil {
		return abort(err)
	}
	markTime := time.Since(markStart)
	tel.RecordSpan(telemetry.SpanGCMark, -1, -1, markStart, markTime)
	// Snapshot the workers' own device traffic now, while it covers
	// exactly the concurrent phase: it was issued between the pauses, so
	// the pause-window deltas below miss precisely this amount (the
	// remark's share is issued inside pause 2 and lands in its window).
	// Mutator traffic during marking is attributed at its own call sites
	// and never lands here.
	var concStats nvm.Stats
	for _, ws := range mk.MarkWorkerStats() {
		concStats = concStats.Add(ws)
	}

	// Phase 3: final pause.
	w.StopWorld()
	pause2Start := time.Now()
	p2Before := dev.Stats()
	finalErr := func(err error) (Result, error) {
		h.SetGCPhase(pheap.GCPhaseIdle)
		fr.Append(blackbox.EvGCAbort, h.GlobalTS(), 0, 0)
		w.StartWorld()
		return Result{}, err
	}
	h.PrepareForCollection() // mutators attached fresh PLABs while marking ran
	h.EndConcurrentMark()
	dirtyCards := h.SATBDirtyCards()
	remarkStart := time.Now()
	if err := mk.FinalRemark(h.SnapshotRegionTops()); err != nil {
		return finalErr(err)
	}
	tel.RecordSpan(telemetry.SpanGCRemark, -1, -1, remarkStart, time.Since(remarkStart))
	// From here the tail is the STW collector's.
	t, err := runTail(h, ext, mk, dirtyCards, workers)
	if err != nil {
		return finalErr(err)
	}
	pauseStats = pauseStats.Add(dev.Stats().Sub(p2Before))
	pause2 := time.Since(pause2Start)
	w.StartWorld()

	// GC device traffic is the two pause windows plus the concurrent-phase
	// worker traffic snapshotted above.
	tel.RecordSpan(telemetry.SpanGCFinalPause, -1, -1, pause2Start, pause2)
	res := t.report(h, mk, markStart, pauseStats.Add(concStats))
	res.MarkTime = markTime
	res.PauseTime = pause1 + pause2
	res.DeviceStats = dev.Stats().Sub(statsBefore)
	res.PauseDeviceStats = pauseStats
	return res, nil
}
