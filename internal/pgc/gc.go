package pgc

import (
	"fmt"
	"runtime"
	"time"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc/marker"
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
	// MarkTime is the wall time spent marking.
	MarkTime time.Duration
	// PauseTime is the wall time of the whole collection, which stops
	// the world throughout.
	PauseTime time.Duration
	// DeviceStats is the device traffic of the whole collection;
	// PauseDeviceStats is the subset issued inside the stop-the-world
	// window, which is the same thing.
	DeviceStats      nvm.Stats
	PauseDeviceStats nvm.Stats
	// MarkWorkerStats[w] is mark worker w's device traffic (the busiest
	// worker bounds the marking wall clock on a real device);
	// CompactStats is the compact phase's. The modeled device critical
	// path of mark+compact is max(MarkWorkerStats) + CompactStats, which
	// the gcpause experiment's workers axis gates on.
	MarkWorkerStats []nvm.Stats
	CompactStats    nvm.Stats
	// LazyPersisted is how many layout.RefLazy slots the cycle persisted
	// before it moved anything (runTail).
	LazyPersisted int
	// MarkWorkerTimes[w] is mark worker w's productive tracing time
	// (loop wall time minus termination-barrier parking). Skew across
	// the slice means uneven work division — the signal the device-stat
	// split above cannot show when the imbalance is in host work (deque
	// contention, scheduling) rather than device traffic. Each is also
	// emitted as a gc.mark.worker telemetry span when the heap has a
	// registry attached.
	MarkWorkerTimes []time.Duration
	Recovered       bool // true when RecoverIfNeeded replayed a compaction
}

// Collect runs a full crash-consistent collection of h. ext supplies (and
// receives updates for) DRAM references into the heap; pass NoRoots{} if
// none exist. The world must be stopped: no allocation or mutation may run
// concurrently, as with the JVM's stop-the-world old GC.
//
// Marking runs on runtime.GOMAXPROCS(0) workers, as Parallel Scavenge's
// old-generation mark runs on its GC threads, into a volatile bitmap; its
// result — the mark bitmap, the counts, the outgoing-reference summary,
// the lazy slots — is the same for every worker count. The bitmap's
// persist, the lazy-slot batch, summary and compaction run on one
// goroutine, so a collection's flushes come in one fixed order, which the
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

	// Safepoint: persist every open PLAB's region top, then detach the
	// PLABs and recycled holes; the finish step republishes all region
	// tops from the summary.
	h.PrepareForCollection()
	fr := h.FlightRecorder()
	fr.Append(blackbox.EvGCBegin, 0, h.GlobalTS(), 0)

	markStart := time.Now()
	mk, err := mark(h, ext, runtime.GOMAXPROCS(0))
	if err != nil {
		return Result{}, err
	}
	defer mk.Release()
	markTime := time.Since(markStart)
	t, err := runTail(h, ext, mk)
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

// tail is what the part of a cycle after the mark leaves behind for its
// report: the summary, the compactor's result, and the phase windows.
type tail struct {
	s                                 *Summary
	cr                                compactResult
	sumStart, compactStart, redoStart time.Time
	sumTime, compactTime, redoTime    time.Duration
	redoStats                         nvm.Stats
	lazy                              int // slots persistLazy persisted
}

// persistLazy makes every lazy link the marker traced durable: it clears
// RefLazy in each slot and writes the slots' lines back in ascending
// device order, then fences once. It runs on the collector's goroutine,
// so the order is the same at every GOMAXPROCS, and issues no device op
// when there is nothing to persist.
//
// Why this is the only flush a lazy link ever needs (Px86): a lazy link
// (internal/pindex) skips only nodes whose delete marks were read durable,
// so the slot's persisted value reaches the same live objects through
// them, and recovery prunes them. The skipped nodes are unreachable now,
// so this cycle frees them — but only after the fence below: the
// summary and compaction come later, and a crash before the fence
// leaves the heap as it was, not mid-collection. The marker read each
// word with the world stopped, so the word it recorded is still the
// slot's value.
func persistLazy(h *pheap.Heap, slots []marker.LazySlot) int {
	if len(slots) == 0 {
		return 0
	}
	lines := make([]nvm.Range, len(slots))
	for i, sl := range slots {
		h.Device().WriteU64(sl.Off, sl.W&^uint64(layout.RefLazy))
		lines[i] = nvm.LineRange(sl.Off, 8)
	}
	h.Device().PersistRanges(nvm.MergeRanges(lines))
	return len(slots)
}

// runTail takes a cycle from a complete mark to a republished heap, with
// the world stopped:
//
//  0. persist the lazy links the marker found (persistLazy). Nothing
//     after this may free or move an object the persisted links still
//     reach and the volatile ones skip. (mark has persisted the bitmap
//     and zeroed the progress word.)
//  1. stamp the heap mid-collection (timestamp first, flag second; see
//     pheap.SetGCState for why the order matters). From here the
//     persisted bitmap carries the cycle: recovery resumes the
//     compaction at the progress word.
//  2. summarize the volatile bitmap, which the persisted one equals, and
//     check it against the marker's counts. On failure nothing has moved:
//     the heap is un-stamped and the error returned.
//  3. compact. Recycling state refers to the pre-GC layout and is dropped
//     before anything moves. The marker's outgoing-reference summary lets
//     the compactor skip fixing cards that cannot reference moved
//     objects.
//  4. finish atomically via the redo log, then patch DRAM roots and hand
//     the filler-covered gaps back to the allocator.
func runTail(h *pheap.Heap, ext Rooter, mk *marker.Marker) (*tail, error) {
	fr := h.FlightRecorder()
	liveObjects, liveBytes := mk.Counts()
	t := &tail{lazy: persistLazy(h, mk.LazySlots())}
	fr.Append(blackbox.EvGCMarkDone, uint64(liveObjects), uint64(liveBytes), 0)

	cur := h.GlobalTS() + 1
	h.SetGCState(cur, true)
	fr.Append(blackbox.EvGCStamp, cur, uint64(liveObjects), uint64(liveBytes))

	t.sumStart = time.Now()
	s, err := summarizeInto(h, mk.Marks().ForEachSetBelow, keptMoves(h, liveObjects))
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
	t.cr = compact(h, s, cur, buildCleanCards(s, mk.MaxOutgoing()))
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

// report emits the tail's phase spans, the mark-worker spans and the
// cycle's counters, and assembles the Result's counts. gcStats is the
// cycle's whole GC device traffic; the redo-log finish window is split
// out of it under its own subsystem.
func (t *tail) report(h *pheap.Heap, mk *marker.Marker, markStart time.Time, gcStats nvm.Stats) Result {
	tel := h.Telemetry()
	tel.RecordSpan(telemetry.SpanGCSummarize, -1, -1, t.sumStart, t.sumTime)
	tel.RecordSpan(telemetry.SpanGCCompact, -1, -1, t.compactStart, t.compactTime)
	tel.RecordSpan(telemetry.SpanGCRedo, -1, -1, t.redoStart, t.redoTime)
	for i, d := range mk.MarkWorkerTimes() {
		tel.RecordSpan(telemetry.SpanGCMarkWorker, -1, i, markStart, d)
	}
	if sc := tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrGCCycles)
		sc.AtomicDevStats(nvm.SubGC, gcStats.Sub(t.redoStats))
		sc.AtomicDevStats(nvm.SubRedo, t.redoStats)
	}
	return Result{
		LiveObjects:     t.s.LiveObjects,
		LiveBytes:       t.s.LiveBytes,
		MovedObjects:    t.s.MovedObjects,
		MovedBytes:      t.s.MovedBytes,
		NewTop:          t.s.NewTop,
		MarkWorkerStats: mk.MarkWorkerStats(),
		CompactStats:    t.cr.stats,
		LazyPersisted:   t.lazy,
		MarkWorkerTimes: mk.MarkWorkerTimes(),
	}
}

// finish commits the collection's metadata transition — forwarded root
// entries, the republished per-region tops (topEntries, accumulated by
// the compactor's fill pass in region order), and the next global
// timestamp with gcActive=0 — through the redo log so the whole batch
// is atomic and idempotently reapplicable: it becomes durable through
// ONE RedoCommit, whose count+state flush is the single commit point.
// After compaction the heap is dense below NewTop (gap fillers included),
// so every region below it parses to its end (or to NewTop in the last,
// partial region — which the dispenser then resumes filling), and every
// region above it is reset to untouched.
//
// The timestamp moves on because it is the allocation epoch: pheap.Load
// takes a header above a persisted top for an object when its mark word
// carries the image's timestamp, and the evacuated sources now lie above
// the reset tops, intact, each with a timestamp below cur (the headers
// this cycle wrote carry cur and lie below the new top). Ending the cycle
// on cur+1 makes the new epoch one no header carries, so no evacuated
// source is ever taken for an allocation.
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
// nothing: the check is one flag read, no collection slot is taken.
// core.LoadHeap and pshard's parallel recovery fan-out both gate on this.
func RecoverIfNeeded(h *pheap.Heap) (Result, bool, error) {
	if !h.GCActive() {
		return Result{}, false, nil
	}
	r, err := recoverCollection(h)
	return r, true, err
}

// recoverCollection finishes an interrupted collection on a freshly
// loaded heap (paper §4.3): redo the summary from the persisted bitmap,
// fix the in-place objects not yet stamped, redo the moves from the
// progress word on, and rerun the atomic finish. On a heap that is not
// mid-collection it does nothing. Recovery itself may crash and be
// rerun: every step is idempotent.
func recoverCollection(h *pheap.Heap) (Result, error) {
	if !h.TryBeginCollection() {
		return Result{}, fmt.Errorf("pgc: another collection of this heap is already running")
	}
	defer h.EndCollection()
	if !h.GCActive() {
		return Result{}, nil
	}
	start := time.Now()
	statsBefore := h.Device().Stats()
	h.PrepareForCollection()
	fr := h.FlightRecorder()
	fr.Append(blackbox.EvRecoveryGCBegin, h.GlobalTS(), 1, 0)
	s, err := summarizeInto(h, h.MarkBitmap().ForEachSetBelow, keptMoves(h, 0))
	if err != nil {
		return Result{}, fmt.Errorf("pgc: recovery summary: %w", err)
	}
	keepMoves(h, s.Moves)
	// Recovery has no marker state (the outgoing-reference summary died
	// with the crashed process), so it conservatively rescans everything.
	h.ResetFreeHoles()
	cr := compact(h, s, h.GlobalTS(), nil)
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
