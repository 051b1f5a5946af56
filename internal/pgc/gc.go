package pgc

import (
	"fmt"
	"runtime"
	"time"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc/concurrent"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// snapCounters journals a folded-counter snapshot at the end of a cycle
// (rate context for post-mortems: how much work the process had done by
// this point in the timeline). No-op without both a recorder and a
// registry.
func snapCounters(h *pheap.Heap, fr *blackbox.Recorder) {
	tel := h.Telemetry()
	if fr == nil || tel == nil {
		return
	}
	snap := tel.Snapshot()
	fr.Append(blackbox.EvCounterSnap,
		snap.Counter(telemetry.CtrAllocObjects.Name()),
		snap.Counter(telemetry.CtrRefStores.Name()),
		snap.Counter(telemetry.CtrIndexPuts.Name()))
}

// Result reports what a collection (or recovery) did.
type Result struct {
	LiveObjects  int
	LiveBytes    int
	MovedObjects int
	MovedBytes   int
	NewTop       int
	// MarkTime is the wall time spent marking: inside the pause for the
	// stop-the-world collector, overlapped with mutators for the
	// concurrent one.
	MarkTime time.Duration
	// PauseTime is the stop-the-world portion. For Collect and a recovery
	// it equals the whole collection; for CollectConcurrent it is the sum of
	// the initial handshake and the final remark+compaction pause.
	PauseTime time.Duration
	// DeviceStats is the device traffic of the whole collection;
	// PauseDeviceStats is the subset issued inside the stop-the-world
	// windows (they coincide for the STW collector). Under a concurrent
	// collection DeviceStats also absorbs whatever traffic mutators issue
	// while marking runs, since the device counters are shared.
	DeviceStats      nvm.Stats
	PauseDeviceStats nvm.Stats
	// Per-worker device accounting for the parallel phases — index w is
	// worker w's share. MarkWorkerStats covers tracing (the busiest
	// worker bounds the marking wall clock on a real device);
	// CompactFixWorkerStats covers the parallel reference-fix pass of
	// compaction; CompactSerialStats is the rest of the compact phase
	// (the serial move pass, region-bit publication, fillers). The
	// modeled device critical path of mark+compact is
	// max(MarkWorkerStats) + max(CompactFixWorkerStats) +
	// CompactSerialStats, which the gcpause experiment's workers axis
	// gates on.
	MarkWorkerStats       []nvm.Stats
	CompactFixWorkerStats []nvm.Stats
	CompactSerialStats    nvm.Stats
	// Per-worker wall times for the same parallel phases.
	// MarkWorkerTimes is each mark worker's productive tracing time
	// (loop wall time minus termination-barrier parking), accumulated
	// over every trace round of the cycle; CompactFixWorkerTimes is each
	// fix worker's shard wall time. Skew across a slice means uneven
	// work division — the signal the device-stat splits above cannot
	// show when the imbalance is in host work (deque contention,
	// scheduling) rather than device traffic. Both are also emitted as
	// gc.mark.worker / gc.fix.worker telemetry spans when the heap has a
	// registry attached.
	MarkWorkerTimes       []time.Duration
	CompactFixWorkerTimes []time.Duration
	Recovered             bool // true when RecoverIfNeeded replayed a compaction
}

// Collect runs a full crash-consistent collection of h. ext supplies (and
// receives updates for) DRAM references into the heap; pass NoRoots{} if
// none exist. The world must be stopped: no allocation or mutation may run
// concurrently, as with the JVM's stop-the-world old GC.
//
// Marking runs on runtime.GOMAXPROCS(0) workers, as Parallel Scavenge's
// old-generation mark runs on its GC threads; it issues no flush, and its
// result — the mark bitmap, the counts, the outgoing-reference summary —
// is the same for every worker count. Summary and compaction run on one
// worker, so a collection's flushes come in one fixed order, which the
// crash sweeps that crash Collect at its k-th flush rely on.
func Collect(h *pheap.Heap, ext Rooter) (Result, error) {
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
	start := time.Now()
	statsBefore := h.Device().Stats()
	tel := h.Telemetry() // nil when telemetry is disabled; every method no-ops

	// A persisted concurrent-mark phase from an aborted cycle is stale —
	// the bitmap it announced is about to be rebuilt from scratch.
	if h.GCPhase() != pheap.GCPhaseIdle {
		h.SetGCPhase(pheap.GCPhaseIdle)
	}

	// Safepoint: persist every open PLAB's region top, then detach the
	// PLABs and recycled holes; the finish step republishes all region
	// tops from the summary.
	h.PrepareForCollection()
	fr := h.FlightRecorder()
	fr.Append(blackbox.EvGCBegin, 0, h.GlobalTS(), 0)

	// Mark with the world stopped: the trace sees every store, so there
	// are no dirty cards and nothing to remark.
	markStart := time.Now()
	mk, err := mark(h, ext, runtime.GOMAXPROCS(0))
	if err != nil {
		return Result{}, err
	}
	defer mk.Release()
	markTime := time.Since(markStart)
	t, err := runTail(h, ext, mk, nil, 1)
	if err != nil {
		return Result{}, err
	}

	stats := h.Device().Stats().Sub(statsBefore)
	// The world is stopped for the whole cycle, so the full stats delta is
	// GC traffic and the whole cycle one pause.
	tel.RecordSpan(telemetry.SpanGCMark, -1, -1, markStart, markTime)
	tel.RecordSpan(telemetry.SpanGCSTW, -1, -1, start, time.Since(start))
	res := t.report(h, mk, markStart, stats)
	res.MarkTime = markTime
	res.PauseTime = time.Since(start)
	res.DeviceStats = stats
	res.PauseDeviceStats = stats
	return res, nil
}

// tail is what the part of a cycle both collectors share leaves behind
// for their reports: the summary, the compactor's result, and the phase
// windows.
type tail struct {
	s                                 *Summary
	cr                                compactResult
	sumStart, compactStart, redoStart time.Time
	sumTime, compactTime, redoTime    time.Duration
	redoStats                         nvm.Stats
}

// runTail takes a cycle from a complete mark to a republished heap, with
// the world stopped — the one sequence both collectors end on, device op
// for device op:
//
//  1. persist both bitmaps. The mark bitmap is the pre-collection sketch
//     of the heap; the cleared region bitmap must be durable before the
//     heap is stamped active, or recovery could trust stale region bits
//     from a previous collection.
//  2. stamp the heap mid-collection (timestamp first, flag second; see
//     pheap.SetGCState for why the order matters). From here the
//     persisted bitmap carries the cycle, so a concurrent cycle — the
//     one that arrives with its phase word set — retires the word:
//     recovery resumes the compaction rather than discarding the mark.
//  3. summarize — idempotent, derived from the bitmap alone — and check
//     it against the marker's counts. On failure nothing has moved: the
//     heap is un-stamped and the error returned.
//  4. compact. Recycling state refers to the pre-GC layout and is dropped
//     before anything moves. The marker's outgoing-reference summary lets
//     the compactor skip fixing cards that cannot reference moved
//     objects; dirty vetoes cards mutated after their objects were traced
//     (nil when the mark ran with the world stopped). This is what keeps
//     a concurrent cycle's pause proportional to churn + moves, not to
//     everything live.
//  5. finish atomically via the redo log, then patch DRAM roots and hand
//     the filler-covered gaps back to the allocator.
func runTail(h *pheap.Heap, ext Rooter, mk *concurrent.Marker, dirty []bool, workers int) (*tail, error) {
	fr := h.FlightRecorder()
	liveObjects, liveBytes := mk.Counts()
	h.PersistMarkBitmapUsed()
	h.RegionBitmap().Persist()
	fr.Append(blackbox.EvGCMarkDone, uint64(liveObjects), uint64(liveBytes), 0)

	cur := h.GlobalTS() + 1
	h.SetGCState(cur, true)
	if h.GCPhase() != pheap.GCPhaseIdle {
		h.SetGCPhase(pheap.GCPhaseIdle)
	}
	fr.Append(blackbox.EvGCStamp, cur, uint64(liveObjects), uint64(liveBytes))

	t := &tail{sumStart: time.Now()}
	s, err := summarizeInto(h, keptMoves(h, liveObjects))
	if err == nil && (s.LiveObjects != liveObjects || s.LiveBytes != liveBytes) {
		err = fmt.Errorf("pgc: summary disagrees with marking: %d/%d objects, %d/%d bytes",
			s.LiveObjects, liveObjects, s.LiveBytes, liveBytes)
	}
	if err != nil {
		h.SetGCState(cur, false)
		return nil, err
	}
	t.s = s
	t.sumTime = time.Since(t.sumStart)
	keepMoves(h, s.Moves)

	h.ResetFreeHoles()
	t.compactStart = time.Now()
	t.cr = compact(h, s, cur, buildCleanCards(s, mk.MaxOutgoing(), dirty), workers)
	t.compactTime = time.Since(t.compactStart)
	fr.Append(blackbox.EvGCCompactDone, uint64(s.MovedObjects), uint64(s.MovedBytes), 0)

	redoBefore := h.Device().Stats()
	t.redoStart = time.Now()
	finish(h, s, t.cr.topEntries)
	t.redoStats = h.Device().Stats().Sub(redoBefore)
	t.redoTime = time.Since(t.redoStart)
	ext.UpdateRoots(s.Forward)
	h.SetFreeHoles(t.cr.holes)
	fr.Append(blackbox.EvGCEnd, uint64(s.LiveObjects), uint64(s.MovedObjects), uint64(s.NewTop))
	snapCounters(h, fr)
	return t, nil
}

// report emits the tail's phase spans, the per-worker spans and the
// cycle's counters, and assembles the part of the Result both collectors
// fill the same way. gcStats is the cycle's whole GC device traffic; the
// redo-log finish window is split out of it under its own subsystem.
// The span ring is DRAM-only, so a concurrent cycle calls this after the
// world restarts.
func (t *tail) report(h *pheap.Heap, mk *concurrent.Marker, markStart time.Time, gcStats nvm.Stats) Result {
	tel := h.Telemetry()
	tel.RecordSpan(telemetry.SpanGCSummarize, -1, -1, t.sumStart, t.sumTime)
	tel.RecordSpan(telemetry.SpanGCCompact, -1, -1, t.compactStart, t.compactTime)
	tel.RecordSpan(telemetry.SpanGCRedo, -1, -1, t.redoStart, t.redoTime)
	for i, d := range mk.MarkWorkerTimes() {
		tel.RecordSpan(telemetry.SpanGCMarkWorker, -1, i, markStart, d)
	}
	for i, d := range t.cr.fixWorkerTimes {
		tel.RecordSpan(telemetry.SpanGCFixWorker, -1, i, t.compactStart, d)
	}
	if sc := tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrGCCycles)
		sc.AtomicDevStats(nvm.SubGC, gcStats.Sub(t.redoStats))
		sc.AtomicDevStats(nvm.SubRedo, t.redoStats)
	}
	return Result{
		LiveObjects:           t.s.LiveObjects,
		LiveBytes:             t.s.LiveBytes,
		MovedObjects:          t.s.MovedObjects,
		MovedBytes:            t.s.MovedBytes,
		NewTop:                t.s.NewTop,
		MarkWorkerStats:       mk.MarkWorkerStats(),
		CompactFixWorkerStats: t.cr.fixWorkerStats,
		CompactSerialStats:    t.cr.serialStats,
		MarkWorkerTimes:       mk.MarkWorkerTimes(),
		CompactFixWorkerTimes: t.cr.fixWorkerTimes,
	}
}

// finish commits the collection's metadata transition — forwarded root
// entries, the republished per-region tops (topEntries, accumulated by
// the compactor's fill workers in region order), and the next global
// timestamp with gcActive=0 — through the redo log so the whole batch is atomic and idempotently
// reapplicable: however many workers produced pieces of the batch, it
// becomes durable through ONE RedoCommit, whose count+state flush is the
// single commit point (the single-publish invariant — see compact).
// After compaction the heap is dense below NewTop (gap fillers included),
// so every region below it parses to its end (or to NewTop in the last,
// partial region — which the dispenser then resumes filling), and every
// region above it is reset to untouched.
//
// The timestamp moves on because it is the allocation epoch: pheap.Load
// takes a header above a persisted top for an object when its mark word
// carries the image's timestamp, and the compactor has just stamped every
// processed source — the evacuated ones now lie above the reset tops —
// with this cycle's. Ending the cycle on cur+1 makes a collection's stamp
// something no allocation ever carries.
func finish(h *pheap.Heap, s *Summary, topEntries []pheap.RedoEntry) {
	var entries []pheap.RedoEntry
	for _, root := range h.Roots() {
		entries = append(entries, pheap.RedoEntry{Off: root.ValueOff, Val: uint64(s.Forward(root.Ref))})
	}
	entries = append(entries, topEntries...)
	entries = append(entries, h.GCStateEntries(h.GlobalTS()+1, false)...)
	h.RedoCommit(entries)
	h.RedoApply()
	h.RefreshAfterRedo()
}

// keptMoves returns the move list h's previous collection kept, emptied
// and with room for n moves. The move list is a cycle's one buffer the
// size of the live set; kept on the heap between cycles, a steady
// collection allocates it once, not once per cycle, and a new one has
// 1/16 to spare so a live set that grows a little does not replace it.
// Only the holder of the collection slot calls keptMoves and keepMoves,
// and a cycle's Summary is dead when the slot is released, so no two
// cycles share it.
func keptMoves(h *pheap.Heap, n int) []Move {
	ms, _ := (*h.CollectorScratch()).(*[]Move)
	if ms == nil || cap(*ms) < n {
		return make([]Move, 0, n+n/16)
	}
	return (*ms)[:0]
}

// keepMoves stores a cycle's move list for keptMoves.
func keepMoves(h *pheap.Heap, moves []Move) {
	p := h.CollectorScratch()
	if ms, ok := (*p).(*[]Move); ok {
		*ms = moves
		return
	}
	*p = &moves
}

// gapOf reports the filler-covered gap of region r below the new top.
func gapOf(h *pheap.Heap, s *Summary, r int) (lo, hi int) {
	start := h.Geo().DataOff + r*layout.RegionSize
	lo = start + s.Occupancy(r)
	hi = start + layout.RegionSize
	if hi > s.NewTop {
		hi = s.NewTop
	}
	return lo, hi
}

// recyclableOf trims gap [lo, hi) to cache-line boundaries. Only the
// aligned middle is handed back to allocators: a hole that started
// mid-line would share its first flushed line with the live object the
// compactor left right before it, and a mutator refilling the hole must
// never write a line another mutator may concurrently flush. The edge
// slivers stay plugged with their own fillers until the next collection.
func recyclableOf(lo, hi int) (pheap.Hole, bool) {
	alignedLo := (lo + layout.LineSize - 1) &^ (layout.LineSize - 1)
	alignedHi := hi &^ (layout.LineSize - 1)
	if alignedHi-alignedLo < layout.LineSize {
		return pheap.Hole{}, false
	}
	return pheap.Hole{Lo: alignedLo, Hi: alignedHi}, true
}

// RecoverIfNeeded finishes whatever collection the heap's persisted state
// says was interrupted, reporting whether recovery ran. A clean image pays
// nothing: the check is two word reads, no collection slot is taken.
// core.LoadHeap and pshard's parallel recovery fan-out both gate on this.
func RecoverIfNeeded(h *pheap.Heap) (Result, bool, error) {
	if !h.GCActive() && h.GCPhase() == pheap.GCPhaseIdle {
		return Result{}, false, nil
	}
	r, err := recoverCollection(h)
	return r, true, err
}

// recoverCollection finishes an interrupted collection on a freshly
// loaded heap (paper §4.3): refetch the mark bitmap, redo the summary,
// process the regions the region bitmap and source timestamps report
// unfinished, and rerun the atomic finish. On a heap that is not
// mid-collection it only clears a leftover concurrent-mark phase word:
// with gcActive clear, that word means the crash interrupted marking
// before anything moved, so the recovery is "discard the partial mark,
// start the next cycle fresh" (the STW fallback). Recovery itself may
// crash and be rerun: every step is idempotent.
func recoverCollection(h *pheap.Heap) (Result, error) {
	if !h.TryBeginCollection() {
		return Result{}, fmt.Errorf("pgc: another collection of this heap is already running")
	}
	defer h.EndCollection()
	if !h.GCActive() {
		if h.GCPhase() != pheap.GCPhaseIdle {
			h.SetGCPhase(pheap.GCPhaseIdle)
		}
		return Result{}, nil
	}
	start := time.Now()
	statsBefore := h.Device().Stats()
	h.PrepareForCollection()
	fr := h.FlightRecorder()
	fr.Append(blackbox.EvRecoveryGCBegin, h.GlobalTS(), 1, 0)
	s, err := summarizeInto(h, keptMoves(h, 0))
	if err != nil {
		return Result{}, fmt.Errorf("pgc: recovery summary: %w", err)
	}
	keepMoves(h, s.Moves)
	// Recovery has no marker state (the outgoing-reference summary died
	// with the crashed process), so it conservatively rescans everything
	// — and runs single-threaded: recovery is rare, and one worker keeps
	// its flush ordering identical to the historical serial compactor.
	h.ResetFreeHoles()
	cr := compact(h, s, h.GlobalTS(), nil, 1)
	// The mark bitmap was fully persisted before gcActive was set, so a
	// phase word still announcing the concurrent mark is stale — clear it
	// before the finish batch retires gcActive. A crash in between leaves
	// gcActive set and reruns this recovery.
	if h.GCPhase() != pheap.GCPhaseIdle {
		h.SetGCPhase(pheap.GCPhaseIdle)
	}
	finish(h, s, cr.topEntries)
	h.SetFreeHoles(cr.holes)
	fr.Append(blackbox.EvRecoveryGCEnd, uint64(s.LiveObjects), uint64(s.MovedObjects), uint64(s.NewTop))
	stats := h.Device().Stats().Sub(statsBefore)
	// The whole replay is one recovery event: one span, all device
	// traffic attributed to the recovery subsystem.
	tel := h.Telemetry()
	tel.RecordSpan(telemetry.SpanRecoveryGC, -1, -1, start, time.Since(start))
	if sc := tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrGCRecoveries)
		sc.AtomicDevStats(nvm.SubRecovery, stats)
	}
	return Result{
		LiveObjects:      s.LiveObjects,
		LiveBytes:        s.LiveBytes,
		MovedObjects:     s.MovedObjects,
		MovedBytes:       s.MovedBytes,
		NewTop:           s.NewTop,
		PauseTime:        time.Since(start),
		DeviceStats:      stats,
		PauseDeviceStats: stats,
		Recovered:        true,
	}, nil
}
