package pgc

import (
	"time"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// compactResult carries what the compact phase hands back to finish and
// to the collector's result: the per-region top entries for the redo
// batch, the recyclable holes, and the device-accounting split the
// gcpause experiment models the parallel critical path from.
type compactResult struct {
	// topEntries[r] is region r's republished-top redo entry — each fill
	// worker stamps the slots of the regions it owns, and finish
	// publishes the concatenation in one RedoCommit (see the
	// single-publish invariant below).
	topEntries []pheap.RedoEntry
	// holes is the merged, ascending list of recyclable gaps the fill
	// workers discovered (pheap.MergeHoleLists over the per-worker
	// lists).
	holes []pheap.Hole
	// fixWorkerStats[w] is worker w's device traffic in the parallel
	// reference-fix pass; serialStats is everything else the compact
	// phase issued (the serial move pass, region-bit publication, and
	// the fill pass) — together they reconstruct the phase's modeled
	// critical path: max over workers of fix + serial.
	fixWorkerStats []nvm.Stats
	serialStats    nvm.Stats
	// fixWorkerTimes[w] is worker w's wall time in the fix pass — the
	// host-clock companion to fixWorkerStats for spotting worker skew.
	fixWorkerTimes []time.Duration
}

// compact executes (or, after a crash, resumes) the compact phase
// described by the summary, fanned over workers where the persistence
// discipline allows. It is safe to run the same summary twice: the
// region bitmap skips fully evacuated source regions, and the
// source-header timestamp skips individual objects that already reached
// their destination. cur is the collection's global timestamp.
//
// The phase runs as three passes:
//
//  1. Fix (parallel): in-place objects (Dst == Src — the dense prefix
//     and pinned humongous objects) get their references rewritten
//     through the summary's forwarding table, sharded by source region.
//     The table is read-only and shared, so cross-region references
//     forward without any coordination; regions are cache-line-aligned,
//     so no two workers ever write or flush the same line. Each object
//     keeps the serial per-object protocol — fix, flush, fence, stamp,
//     flush, fence — so a crash anywhere inside the pass recovers
//     exactly as it did single-threaded.
//  2. Move (serial): evacuations in ascending source order, with the
//     region bitmap published as each source region empties. This pass
//     stays on one goroutine deliberately: destinations pack
//     contiguously, so consecutive copies share cache lines — and the
//     device discipline (a line is never written by one goroutine while
//     another flushes it) plus the source-as-undo-log ordering (a
//     region's space is reusable only after its evacuation is durable)
//     would serialize the workers anyway.
//  3. Fill (parallel): gap fillers, the recyclable-hole lists, and the
//     per-region top entries of the finish batch, sharded by region
//     like pass 1. Each worker accumulates its own hole list and stamps
//     its own topEntries slots; the coordinator merges the lists.
//
// Single-publish invariant: no matter how many workers accumulated
// pieces of the finish batch, nothing any of them produced becomes
// durable until finish publishes the whole batch — roots, every
// region top, gcActive — through ONE RedoCommit. The redo log's commit
// point (count+state flushed after the entries) is a single flush+fence
// boundary, so a crash anywhere up to it leaves the metadata all-old
// and a crash after it replays all-new; there is no window in which one
// worker's tops are visible without another's.
//
// cleanCard, when non-nil, reports cards (pheap.SATBCardBytes each)
// whose objects provably hold no reference to any moved object (the
// marker's outgoing-reference summary, vetoed by the write barrier's
// dirty cards — see buildCleanCards). In-place objects of a clean card
// need no fixing, no flush, and no stamp: redoing them is a no-op, so
// recovery — which always runs with cleanCard nil and rescans
// everything — remains sound; their headers simply keep a stale
// timestamp, which the next cycle's fresh timestamp treats like any
// other unprocessed object. Moved objects of a clean card still run the
// full copy protocol, just without the reference scan. This is what
// keeps the compaction pause proportional to the mutated and moved part
// of the heap rather than to everything live.
func compact(h *pheap.Heap, s *Summary, cur uint64, cleanCard []bool, workers int) compactResult {
	if workers < 1 {
		workers = 1
	}
	dev := h.Device()
	geo := h.Geo()
	statsBefore := dev.Stats()
	regionBm := h.RegionBitmap()
	regionOf := func(off int) int { return (off - geo.DataOff) / layout.RegionSize }
	cardOf := func(off int) int { return (off - geo.DataOff) / pheap.SATBCardBytes }
	clean := func(c int) bool { return cleanCard != nil && c < len(cleanCard) && cleanCard[c] }

	// Group the moves into per-source-region spans (moves ascend by
	// source), and snapshot the region bitmap: bit-set regions are
	// recovery resuming past completed work — their source bytes may be
	// garbage, so their objects are skipped wholesale before any header
	// read.
	type span struct{ r, lo, hi int }
	var spans []span
	bitSet := make([]bool, geo.Regions())
	for i := 0; i < len(s.Moves); {
		r := regionOf(s.Moves[i].Src)
		hi := i + 1
		for hi < len(s.Moves) && regionOf(s.Moves[hi].Src) == r {
			hi++
		}
		spans = append(spans, span{r: r, lo: i, hi: hi})
		bitSet[r] = regionBm.Get(r)
		i = hi
	}

	// Pass 1: parallel in-place reference fixing, regions round-robin
	// across the pool. Per-worker accounting: the busiest worker bounds
	// the pass. When nothing moved the forwarding relation is the
	// identity and the whole pass — including the dirty-card rescans the
	// clean-card veto would force — is provably a no-op, so it is skipped
	// outright.
	fixStats := make([]nvm.Stats, workers)
	fixTimes := make([]time.Duration, workers)
	fixShard := func(w int) {
		shardStart := time.Now()
		wd := dev.NewView()
		defer wd.Release()
		for si := w; si < len(spans); si += workers {
			sp := spans[si]
			if bitSet[sp.r] {
				continue
			}
			for i := sp.lo; i < sp.hi; i++ {
				m := s.Moves[i]
				if m.Dst != m.Src || clean(cardOf(m.Src)) {
					continue
				}
				srcMark := wd.ReadU64(m.Src + layout.MarkWordOff)
				if layout.MarkTimestamp(srcMark) == cur {
					continue // recovery resuming: already processed
				}
				// Fix the object's references, persist, then stamp it
				// processed. Its own header is authentic, so the
				// timestamp gate is sound. When the fix changes nothing,
				// flush and stamp are skipped: redoing a no-op fix is
				// free, so recovery (which sees the stale timestamp and
				// reprocesses) is unaffected — and the pause stops
				// paying two flushes and two fences per untouched live
				// object.
				if fixRefs(wd, h, s, m.Dst, m.Size) {
					wd.Flush(m.Dst, m.Size)
					wd.Fence()
					wd.WriteU64(m.Src+layout.MarkWordOff, layout.WithTimestamp(srcMark, cur))
					wd.Flush(m.Src+layout.MarkWordOff, 8)
					wd.Fence()
				}
			}
		}
		fixStats[w] = wd.Stats()
		fixTimes[w] = time.Since(shardStart)
	}
	if s.MovedObjects > 0 {
		runShards(workers, fixShard)
	}

	// Pass 2: serial evacuations in ascending source order. In-place
	// moves were handled above and are skipped structurally (no header
	// read), but still drive the region-bit publication points.
	bmRegion, bmSet := -1, false
	for i, m := range s.Moves {
		r := regionOf(m.Src)
		if r != bmRegion {
			bmRegion, bmSet = r, bitSet[r]
		}
		if !bmSet && m.Dst != m.Src {
			srcMark := dev.ReadU64(m.Src + layout.MarkWordOff)
			if layout.MarkTimestamp(srcMark) != cur {
				// Evacuation: copy, fix references in the copy (the source
				// stays pristine — it is the undo log), persist the copy,
				// then stamp destination first, source second (§4.2 step 3).
				dev.Move(m.Dst, m.Src, m.Size)
				if !clean(cardOf(m.Src)) {
					fixRefs(dev, h, s, m.Dst, m.Size)
				}
				dev.Flush(m.Dst, m.Size)
				dev.Fence()
				dev.WriteU64(m.Dst+layout.MarkWordOff, layout.WithTimestamp(srcMark, cur))
				dev.Flush(m.Dst+layout.MarkWordOff, 8)
				dev.Fence()
				dev.WriteU64(m.Src+layout.MarkWordOff, layout.WithTimestamp(srcMark, cur))
				dev.Flush(m.Src+layout.MarkWordOff, 8)
				dev.Fence()
			}
		}
		if i == s.RegionLastMove(r) && !bmSet {
			// The region is fully evacuated (or fully processed in place);
			// from here on it may be overwritten as a destination, so the
			// fact must be durable first. Regions whose bit was already set
			// (recovery resuming past completed work) skip the re-persist.
			regionBm.Set(r)
			bmSet = true
			bitSet[r] = true
			dev.Flush(geo.RegionBmpOff, geo.RegionBmpSize)
			dev.Fence()
		}
	}

	// Pass 3: parallel fillers, hole lists, and finish-batch top
	// entries, regions round-robin. Every write and flush stays inside
	// the owning worker's regions, so the pass is line-disjoint like
	// pass 1; the per-worker hole lists are each ascending and merge
	// into the global ascending list.
	topEntries := make([]pheap.RedoEntry, geo.DataRegions())
	holeLists := make([][]pheap.Hole, workers)
	runShards(workers, func(w int) {
		for r := w; r < geo.DataRegions(); r += workers {
			start := geo.DataOff + r*layout.RegionSize
			var top uint64
			if start < s.NewTop {
				top = uint64(min(start+layout.RegionSize, s.NewTop))
			}
			topEntries[r] = pheap.RedoEntry{Off: h.RegionTopMetaOff(r), Val: top}
			if start >= s.NewTop {
				continue
			}
			// Plug each gap so the compacted heap parses. Gaps big enough
			// to recycle are split at cache-line boundaries — edge
			// sliver, aligned middle, edge sliver — so the middle filler
			// handed to allocators starts on a line no live object
			// shares. Rerunning after a crash rewrites the same fillers.
			plug := func(gapLo, gapHi int) {
				hole, ok := recyclableOf(gapLo, gapHi)
				if !ok {
					h.WriteFiller(gapLo, gapHi-gapLo) // persists internally
					return
				}
				if hole.Lo > gapLo {
					h.WriteFiller(gapLo, hole.Lo-gapLo)
				}
				h.WriteFiller(hole.Lo, hole.Hi-hole.Lo)
				if gapHi > hole.Hi {
					h.WriteFiller(hole.Hi, gapHi-hole.Hi)
				}
				holeLists[w] = append(holeLists[w], hole)
			}
			// Interior dead wood first (it lies below the tail), keeping
			// this worker's hole list ascending for the merge.
			for _, g := range s.InteriorGaps(r) {
				plug(g.Lo, g.Hi)
			}
			if gapLo, gapHi := gapOf(h, s, r); gapLo < gapHi {
				plug(gapLo, gapHi)
			}
		}
	})

	serial := dev.Stats().Sub(statsBefore)
	for _, ws := range fixStats {
		serial = serial.Sub(ws)
	}
	return compactResult{
		topEntries:     topEntries,
		holes:          pheap.MergeHoleLists(holeLists),
		fixWorkerStats: fixStats,
		serialStats:    serial,
		fixWorkerTimes: fixTimes,
	}
}

// buildCleanCards combines the marker's per-card outgoing-reference
// maxima with the summary's moves (and, for a concurrent cycle, the
// write barrier's dirty cards) into the compactor's skip set: card c is
// clean when every reference any of its objects holds targets an offset
// below the lowest moved source — so no slot in c can point at an
// object that changes address — and no mutator stored into c after its
// objects were traced.
func buildCleanCards(s *Summary, maxOut []int, dirty []bool) []bool {
	minMovedSrc := int(^uint(0) >> 1)
	for _, m := range s.Moves {
		if m.Dst != m.Src {
			minMovedSrc = m.Src
			break // moves ascend by src
		}
	}
	clean := make([]bool, len(maxOut))
	for c := range clean {
		clean[c] = maxOut[c] < minMovedSrc && (dirty == nil || c >= len(dirty) || !dirty[c])
	}
	return clean
}

// fixDevice is the device surface fixRefs needs — the shared *nvm.Device
// on the serial paths, a worker's own *nvm.View in the parallel fix
// pass.
type fixDevice interface {
	ReadU64(off int) uint64
	WriteU64(off int, v uint64)
}

// fixRefs rewrites every reference slot of the object at device offset off
// through the summary's forwarding relation, reporting whether any slot
// changed. References outside the heap (DRAM, other heaps) forward to
// themselves.
func fixRefs(dev fixDevice, h *pheap.Heap, s *Summary, off, size int) bool {
	kaddr := layout.Ref(dev.ReadU64(off + layout.KlassWordOff))
	k, ok := h.KlassByAddr(kaddr)
	if !ok {
		// Unreachable by protocol; leaving the object untouched is safer
		// than guessing a layout.
		return false
	}
	changed := false
	pheap.RefSlots(dev, off, k, func(slotBoff int) {
		raw := layout.Ref(dev.ReadU64(off + slotBoff))
		v := layout.UntagRef(raw)
		if v != layout.NullRef && h.Contains(v) {
			if f := s.Forward(v); f != v {
				// Low tag bits (the persistent index's link-state marks)
				// are not part of the address; carry them over unchanged.
				dev.WriteU64(off+slotBoff, uint64(f|layout.RefTag(raw)))
				changed = true
			}
		}
	})
	return changed
}
