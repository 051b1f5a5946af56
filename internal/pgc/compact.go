package pgc

import (
	"fmt"
	"sort"

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
// in-place objects carry the timestamp of the cycle that fixed them, and
// the heap's progress word says how many moves are durable. cur is the
// collection's global timestamp.
//
// The phase runs as three passes, all on the calling goroutine, so a
// collection's flushes come in one fixed order:
//
//  1. Fix: in-place objects (Dst == Src — the dense prefix and pinned
//     humongous objects) get their references rewritten through the
//     summary's forwarding table. Each object runs the per-object
//     protocol — fix, flush, fence, stamp, flush, fence.
//  2. Move: evacuations in ascending source order, one window at a time
//     (windowEnd): copy, fix and stamp every object of the window, flush
//     the window's destination lines as one batch, fence, then move the
//     progress word past the window and fence again.
//  3. Fill: gap fillers, written unflushed and persisted with one batch
//     and one fence, the recyclable-hole list, and the per-region top
//     entries of the finish batch. Nothing the pass produces is
//     published until finish commits the whole batch — roots, every
//     region top, gcActive — through ONE RedoCommit.
//
// Why a window needs no per-object record (Px86): a destination lands
// only on space whose objects moved earlier (the summary's pool rule) and
// never on a source of its own window, so while a window is open its
// sources are intact and every earlier move is durable, fenced before the
// progress word. Any subset of its lines may persist before its fence;
// recovery resumes at the progress word and copies it again.
//
// cleanCard, when non-nil, reports cards (marker.CardBytes each) whose
// objects provably hold no reference to any moved object (the marker's
// outgoing-reference summary — see buildCleanCards). In-place objects of
// a clean card need no fixing, no flush, and no stamp: redoing them is a
// no-op, so recovery — which always runs with cleanCard nil and rescans
// everything — remains sound; their headers simply keep a stale
// timestamp, which the next cycle's fresh timestamp treats like any
// other unprocessed object. Moved objects of a clean card are copied
// like the rest, just without the reference scan. This keeps the
// compaction pause proportional to the moved part of the heap rather
// than to everything live.
func compact(h *pheap.Heap, s *Summary, cur uint64, cleanCard []bool) compactResult {
	dev := h.Device()
	geo := h.Geo()
	statsBefore := dev.Stats()
	cardOf := func(off int) int { return (off - geo.DataOff) / marker.CardBytes }
	clean := func(c int) bool { return cleanCard != nil && c < len(cleanCard) && cleanCard[c] }

	// Pass 1: in-place reference fixing. When nothing moved the
	// forwarding relation is the identity and the whole pass is provably
	// a no-op, so it is skipped outright.
	if s.MovedObjects > 0 {
		for _, m := range s.Moves {
			if m.Dst != m.Src || clean(cardOf(m.Src)) {
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
				dev.Persist(m.Dst, m.Size)
				dev.WriteU64(m.Src+layout.MarkWordOff, layout.WithTimestamp(srcMark, cur))
				dev.Persist(m.Src+layout.MarkWordOff, 8)
			}
		}
	}

	// Pass 2: evacuations, window by window, from the first move the
	// progress word does not cover.
	var lines []nvm.Range
	for i := h.CompactProgress(); i < len(s.Moves); {
		end := windowEnd(s.Moves, i)
		lines = lines[:0]
		for _, m := range s.Moves[i:end] {
			if m.Dst == m.Src {
				continue
			}
			dev.Move(m.Dst, m.Src, m.Size)
			if !clean(cardOf(m.Src)) {
				fixRefs(dev, h, s, m.Dst, m.Size)
			}
			dev.WriteU64(m.Dst+layout.MarkWordOff, layout.WithTimestamp(dev.ReadU64(m.Dst+layout.MarkWordOff), cur))
			lines = append(lines, nvm.LineRange(m.Dst, m.Size))
		}
		if len(lines) > 0 {
			dev.PersistRanges(nvm.MergeRanges(lines))
			h.PersistCompactProgress(end)
		}
		i = end
	}

	// Pass 3: fillers, the hole list, and finish-batch top entries,
	// region by region, so the hole list comes out ascending.
	topEntries := make([]pheap.RedoEntry, geo.DataRegions())
	var holes []pheap.Hole
	lines = lines[:0]
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
		fill := func(lo, hi int) {
			if lo < hi {
				lines = append(lines, h.WriteFiller(lo, hi-lo))
			}
		}
		plug := func(gapLo, gapHi int) {
			hole, ok := recyclableOf(gapLo, gapHi)
			if !ok {
				fill(gapLo, gapHi)
				return
			}
			fill(gapLo, hole.Lo)
			fill(hole.Lo, hole.Hi)
			fill(hole.Hi, gapHi)
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
	// The fillers are durable before finish publishes the tops above them.
	if len(lines) > 0 {
		dev.PersistRanges(nvm.MergeRanges(lines))
	}

	return compactResult{topEntries: topEntries, holes: holes, stats: dev.Stats().Sub(statsBefore)}
}

// windowEnd returns the end of the window that starts at move i: the
// first evacuation whose destination overlaps a source of the window, its
// own included, or len(moves). Sources ascend and are disjoint, so only
// the last one starting below a destination's end can overlap it.
func windowEnd(moves []Move, i int) int {
	for j := i; j < len(moves); j++ {
		m := moves[j]
		if m.Dst == m.Src {
			continue
		}
		k := i + sort.Search(j+1-i, func(k int) bool { return moves[i+k].Src >= m.Dst+m.Size }) - 1
		if k >= i && moves[k].Src+moves[k].Size > m.Dst {
			if j == i { // the pool rule forbids it: it could not be redone
				panic(fmt.Sprintf("pgc: move %d lands on its own source", j))
			}
			return j
		}
	}
	return len(moves)
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
