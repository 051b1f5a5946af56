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
//  1. Initial handshake (brief pause): detach PLABs and recycled holes
//     (pheap.PrepareForCollection — region tops are already persisted),
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
// Recover/Load clear (fall back to a fresh cycle). After gcActive is set
// the persisted bitmap drives the standard resumable recovery.
//
// The result's reachable post-GC heap is byte-identical to Collect's on
// the same quiescent workload: both run the same tracer and the summary
// is a pure function of the bitmap.
//
// CollectConcurrent runs with one GC worker; CollectConcurrentWorkers
// fans marking and the parallel compaction passes over a pool.
func CollectConcurrent(h *pheap.Heap, ext Rooter, w World) (Result, error) {
	return CollectConcurrentWorkers(h, ext, w, 1)
}

// CollectConcurrentWorkers is CollectConcurrent with marking fanned over
// workers work-stealing tracers (which also drain the SATB and
// remset-delta buffers concurrently with tracing) and the compaction
// pause's reference-fix and fill passes sharded over the same count.
// The heap image it produces is byte-identical for every workers value
// on a quiescent heap: marking publishes idempotent bitmap bits and a
// commutative CAS-max card summary, and the compaction passes only
// reorder operations on disjoint cache lines.
func CollectConcurrentWorkers(h *pheap.Heap, ext Rooter, w World, workers int) (Result, error) {
	if workers < 1 {
		workers = 1
	}
	if !h.TryBeginCollection() {
		return Result{}, fmt.Errorf("pgc: another collection of this heap is already running")
	}
	defer h.EndCollection()
	if h.GCActive() {
		return Result{}, fmt.Errorf("pgc: heap is mid-collection; run Recover first")
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
	dirtyRegions := h.SATBDirtyCards()
	remarkStart := time.Now()
	if err := mk.FinalRemark(h.SnapshotRegionTops()); err != nil {
		return finalErr(err)
	}
	tel.RecordSpan(telemetry.SpanGCRemark, -1, -1, remarkStart, time.Since(remarkStart))
	liveObjects, liveBytes := mk.Counts()
	h.PersistMarkBitmapUsed()
	h.RegionBitmap().Persist()
	fr.Append(blackbox.EvGCMarkDone, uint64(liveObjects), uint64(liveBytes), 0)

	// From here the tail is the STW collector's: stamp, summarize,
	// compact, finish. The phase word retires once gcActive carries the
	// cycle — the persisted bitmap is complete, so recovery resumes the
	// compaction rather than discarding the mark.
	cur := h.GlobalTS() + 1
	h.SetGCState(cur, true)
	h.SetGCPhase(pheap.GCPhaseIdle)
	fr.Append(blackbox.EvGCStamp, cur, uint64(liveObjects), uint64(liveBytes))
	sumStart := time.Now()
	s, err := Summarize(h)
	if err != nil {
		h.SetGCState(cur, false)
		return finalErr(err)
	}
	sumTime := time.Since(sumStart)
	if s.LiveObjects != liveObjects || s.LiveBytes != liveBytes {
		h.SetGCState(cur, false)
		return finalErr(fmt.Errorf("pgc: summary disagrees with concurrent marking: %d/%d objects, %d/%d bytes",
			s.LiveObjects, liveObjects, s.LiveBytes, liveBytes))
	}
	// The compactor skips reference fixing for regions the marker proved
	// free of references to moved objects; the barrier's dirty cards veto
	// regions mutated after their objects were traced. This is what keeps
	// the pause proportional to churn + moves, not to everything live.
	h.ResetFreeHoles()
	compactStart := time.Now()
	cr := compact(h, s, cur, buildCleanCards(s, mk.MaxOutgoing(), dirtyRegions), workers)
	compactTime := time.Since(compactStart)
	fr.Append(blackbox.EvGCCompactDone, uint64(s.MovedObjects), uint64(s.MovedBytes), 0)
	redoBefore := dev.Stats()
	redoStart := time.Now()
	finish(h, s, cr.topEntries)
	redoStats := dev.Stats().Sub(redoBefore)
	redoTime := time.Since(redoStart)
	ext.UpdateRoots(s.Forward)
	h.SetFreeHoles(cr.holes)
	fr.Append(blackbox.EvGCEnd, uint64(s.LiveObjects), uint64(s.MovedObjects), uint64(s.NewTop))
	snapCounters(h, fr)
	pauseStats = pauseStats.Add(dev.Stats().Sub(p2Before))
	pause2 := time.Since(pause2Start)
	w.StartWorld()

	// Phase timeline + device attribution, recorded after the world
	// restarts (the span ring is DRAM-only; nothing here holds the pause
	// open). GC device traffic is the two pause windows plus the
	// concurrent-phase worker traffic snapshotted above, minus the
	// redo-log finish window, which gets its own subsystem.
	tel.RecordSpan(telemetry.SpanGCSummarize, -1, -1, sumStart, sumTime)
	tel.RecordSpan(telemetry.SpanGCCompact, -1, -1, compactStart, compactTime)
	tel.RecordSpan(telemetry.SpanGCRedo, -1, -1, redoStart, redoTime)
	tel.RecordSpan(telemetry.SpanGCFinalPause, -1, -1, pause2Start, pause2)
	for i, d := range mk.MarkWorkerTimes() {
		tel.RecordSpan(telemetry.SpanGCMarkWorker, -1, i, markStart, d)
	}
	for i, d := range cr.fixWorkerTimes {
		tel.RecordSpan(telemetry.SpanGCFixWorker, -1, i, compactStart, d)
	}
	if sc := tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrGCCycles)
		sc.AtomicDevStats(nvm.SubGC, pauseStats.Add(concStats).Sub(redoStats))
		sc.AtomicDevStats(nvm.SubRedo, redoStats)
	}

	return Result{
		LiveObjects:           s.LiveObjects,
		LiveBytes:             s.LiveBytes,
		MovedObjects:          s.MovedObjects,
		MovedBytes:            s.MovedBytes,
		NewTop:                s.NewTop,
		MarkTime:              markTime,
		PauseTime:             pause1 + pause2,
		DeviceStats:           dev.Stats().Sub(statsBefore),
		PauseDeviceStats:      pauseStats,
		MarkWorkerStats:       mk.MarkWorkerStats(),
		CompactFixWorkerStats: cr.fixWorkerStats,
		CompactSerialStats:    cr.serialStats,
		MarkWorkerTimes:       mk.MarkWorkerTimes(),
		CompactFixWorkerTimes: cr.fixWorkerTimes,
	}, nil
}
