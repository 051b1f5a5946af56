package pgc

import (
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc/marker"
	"espresso/internal/pheap"
)

// compactResult carries what the compact phase hands back to finish and
// to the collector's result: the per-region top entries for the redo
// batch, the recyclable holes, and the phase's device traffic.
type compactResult struct {
	// topEntries[r] is region r's republished-top redo entry; finish
	// publishes them in one RedoCommit.
	topEntries []pheap.RedoEntry
	// holes is the ascending list of recyclable gaps the fill pass
	// discovered.
	holes []pheap.Hole
	stats nvm.Stats
}

// compact executes (or, after a crash, resumes) the compact phase
// described by the summary. It is safe to run the same summary twice:
// the region bitmap skips fully evacuated source regions, and the
// source-header timestamp skips individual objects that already reached
// their destination. cur is the collection's global timestamp.
//
// The phase runs as three passes, all on the calling goroutine, so a
// collection's flushes come in one fixed order:
//
//  1. Fix: in-place objects (Dst == Src — the dense prefix and pinned
//     humongous objects) get their references rewritten through the
//     summary's forwarding table. Each object runs the per-object
//     protocol — fix, flush, fence, stamp, flush, fence.
//  2. Move: evacuations in ascending source order, with the region
//     bitmap published as each source region empties (the source is the
//     undo log: a region's space is reusable only after its evacuation
//     is durable).
//  3. Fill: gap fillers, the recyclable-hole list, and the per-region
//     top entries of the finish batch. Nothing the pass produces becomes
//     durable until finish publishes the whole batch — roots, every
//     region top, gcActive — through ONE RedoCommit.
//
// cleanCard, when non-nil, reports cards (marker.CardBytes each) whose
// objects provably hold no reference to any moved object (the marker's
// outgoing-reference summary — see buildCleanCards). In-place objects of
// a clean card need no fixing, no flush, and no stamp: redoing them is a
// no-op, so recovery — which always runs with cleanCard nil and rescans
// everything — remains sound; their headers simply keep a stale
// timestamp, which the next cycle's fresh timestamp treats like any
// other unprocessed object. Moved objects of a clean card still run the
// full copy protocol, just without the reference scan. This keeps the
// compaction pause proportional to the moved part of the heap rather
// than to everything live.
func compact(h *pheap.Heap, s *Summary, cur uint64, cleanCard []bool) compactResult {
	dev := h.Device()
	geo := h.Geo()
	statsBefore := dev.Stats()
	regionBm := h.RegionBitmap()
	regionOf := func(off int) int { return (off - geo.DataOff) / layout.RegionSize }
	cardOf := func(off int) int { return (off - geo.DataOff) / marker.CardBytes }
	clean := func(c int) bool { return cleanCard != nil && c < len(cleanCard) && cleanCard[c] }

	// Snapshot the region bitmap for every source region (moves ascend
	// by source): bit-set regions are recovery resuming past completed
	// work — their source bytes may be garbage, so their objects are
	// skipped wholesale before any header read.
	bitSet := make([]bool, geo.Regions())
	for i, m := range s.Moves {
		if r := regionOf(m.Src); i == 0 || r != regionOf(s.Moves[i-1].Src) {
			bitSet[r] = regionBm.Get(r)
		}
	}

	// Pass 1: in-place reference fixing. When nothing moved the
	// forwarding relation is the identity and the whole pass is provably
	// a no-op, so it is skipped outright.
	if s.MovedObjects > 0 {
		for _, m := range s.Moves {
			if m.Dst != m.Src || bitSet[regionOf(m.Src)] || clean(cardOf(m.Src)) {
				continue
			}
			srcMark := dev.ReadU64(m.Src + layout.MarkWordOff)
			if layout.MarkTimestamp(srcMark) == cur {
				continue // recovery resuming: already processed
			}
			// Fix the object's references, persist, then stamp it
			// processed. Its own header is authentic, so the timestamp
			// gate is sound. When the fix changes nothing, flush and
			// stamp are skipped: redoing a no-op fix is free, so recovery
			// (which sees the stale timestamp and reprocesses) is
			// unaffected — and the pause stops paying two flushes and two
			// fences per untouched live object.
			if fixRefs(dev, h, s, m.Dst, m.Size) {
				dev.Flush(m.Dst, m.Size)
				dev.Fence()
				dev.WriteU64(m.Src+layout.MarkWordOff, layout.WithTimestamp(srcMark, cur))
				dev.Flush(m.Src+layout.MarkWordOff, 8)
				dev.Fence()
			}
		}
	}

	// Pass 2: evacuations in ascending source order. In-place moves were
	// handled above and are skipped structurally (no header
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

	// Pass 3: fillers, the hole list, and finish-batch top entries,
	// region by region, so the hole list comes out ascending.
	topEntries := make([]pheap.RedoEntry, geo.DataRegions())
	var holes []pheap.Hole
	for r := 0; r < geo.DataRegions(); r++ {
		start := geo.DataOff + r*layout.RegionSize
		var top uint64
		if start < s.NewTop {
			top = uint64(min(start+layout.RegionSize, s.NewTop))
		}
		topEntries[r] = pheap.RedoEntry{Off: h.RegionTopMetaOff(r), Val: top}
		if start >= s.NewTop {
			continue
		}
		// Plug each gap so the compacted heap parses. Gaps big enough to
		// recycle are split at cache-line boundaries — edge sliver,
		// aligned middle, edge sliver — so the middle filler handed to
		// allocators starts on a line no live object shares. Rerunning
		// after a crash rewrites the same fillers.
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
			holes = append(holes, hole)
		}
		// Interior dead wood first (it lies below the tail), keeping the
		// hole list ascending.
		for _, g := range s.InteriorGaps(r) {
			plug(g.Lo, g.Hi)
		}
		if gapLo, gapHi := gapOf(h, s, r); gapLo < gapHi {
			plug(gapLo, gapHi)
		}
	}

	return compactResult{topEntries: topEntries, holes: holes, stats: dev.Stats().Sub(statsBefore)}
}

// buildCleanCards combines the marker's per-card outgoing-reference
// maxima with the summary's moves into the compactor's skip set: card c
// is clean when every reference any of its objects holds targets an
// offset below the lowest moved source, so no slot in c can point at an
// object that changes address.
func buildCleanCards(s *Summary, maxOut []int) []bool {
	minMovedSrc := int(^uint(0) >> 1)
	for _, m := range s.Moves {
		if m.Dst != m.Src {
			minMovedSrc = m.Src
			break // moves ascend by src
		}
	}
	clean := make([]bool, len(maxOut))
	for c := range clean {
		clean[c] = maxOut[c] < minMovedSrc
	}
	return clean
}

// fixRefs rewrites every reference slot of the object at device offset off
// through the summary's forwarding relation, reporting whether any slot
// changed. References outside the heap (DRAM, other heaps) forward to
// themselves.
func fixRefs(dev *nvm.Device, h *pheap.Heap, s *Summary, off, size int) bool {
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
