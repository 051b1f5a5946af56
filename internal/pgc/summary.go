// Package pgc implements the crash-consistent garbage collector for the
// persistent Java heap (paper §4.2–§4.3): a region-based mark/summary/
// compact algorithm derived from ParallelScavenge's old GC, hardened so a
// crash at any point leaves the heap recoverable.
//
// The protocol, as in the paper:
//
//  1. Marking records live objects in a volatile mark bitmap; before
//     anything moves, the persistent bitmap's lines that differ from it,
//     and a zeroed progress word, are flushed as one batch and fenced.
//  2. The heap is stamped mid-collection: the global timestamp is bumped
//     and the gcActive flag set (in that store order), making every object
//     "stale".
//  3. The summary phase is a pure function of the mark bitmap — idempotent,
//     so recovery can simply rerun it.
//  4. The compact phase fixes the objects that stay, each fixed header
//     stamped with the timestamp, then evacuates the rest one window at
//     a time: copy, fix and stamp each object, flush the window's
//     destinations as one batch, fence, and persist the progress word —
//     the moves now durable — behind a second fence. A window never
//     writes onto its own sources: they are its undo log.
//  5. The finish step — forwarded root entries, the new top, clearing
//     gcActive — commits atomically through the metadata redo log.
//
// Recovery reruns summary from the persisted bitmap and resumes
// compaction: an in-place object whose header carries the timestamp is
// done, and the moves from the progress word on are redone from their
// sources, window by window; nothing below it is read from its source.
package pgc

import (
	"container/heap"
	"errors"
	"sort"

	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// ErrNoSpaceToCompact is returned when the heap is so full and fragmented
// that no empty region is available as an evacuation destination.
var ErrNoSpaceToCompact = errors.New("pgc: no empty region available for compaction")

// deadWoodDenominator bounds the garbage tolerated inside the dense
// prefix: the prefix extends while its cumulative dead wood stays within
// 1/deadWoodDenominator of its span. The budget can be generous because
// interior dead wood is not wasted space — the fill pass hands every
// line-aligned gap back to the allocators as a recyclable hole, so
// tolerated garbage becomes allocatable immediately (only the sub-line
// edge slivers are true waste until the next slide). 3 keeps a
// steadily-churning heap in the cheap hole-recycling regime, while a
// heap more than a third dead still gets a real slide. Compare G1,
// which never evacuates regions above ~85% liveness at all.
const deadWoodDenominator = 3

// GapSpan is one interior dead-wood gap [Lo, Hi) of the dense prefix,
// contained in a single region. The fill pass plugs it like a region
// tail: fillers, with the line-aligned middle recycled as a hole.
type GapSpan struct{ Lo, Hi int }

// Move describes one live object: its source, destination, and size, all
// as device offsets. Dst == Src for objects that stay in place (dense
// prefix and pinned humongous objects).
type Move struct {
	Src, Dst, Size int
}

// Summary is the idempotent output of the summary phase: the full
// forwarding relation plus the per-region occupancy needed to place
// fillers and compute the new top. It is derived from the mark bitmap
// alone, never from heap data, so recovery recomputes it bit-identically.
type Summary struct {
	Moves []Move // ascending by Src

	// occ[r] is the final occupied prefix of region r in bytes.
	occ []int
	// interior[r] is region r's ascending interior dead-wood gaps.
	interior [][]GapSpan

	NewTop       int
	LiveObjects  int
	LiveBytes    int
	MovedObjects int
	MovedBytes   int

	dataOff int
	base    layout.Ref
}

// Summarize runs the summary phase over h's persisted mark bitmap.
// liveObjects is the marker's count of live objects when the caller has
// one (0 otherwise): it sizes Moves up front, which otherwise grows by
// appends to several times its final size over a large heap. It changes
// no result and no device access.
func Summarize(h *pheap.Heap, liveObjects int) (*Summary, error) {
	return summarizeInto(h, h.MarkBitmap().ForEachSetBelow, make([]Move, 0, liveObjects))
}

// summarizeInto is Summarize over the bits marks visits (Collect's are
// volatile), building Moves in moves' array (empty on entry), which the
// collectors keep from one cycle to the next.
func summarizeInto(h *pheap.Heap, marks func(limit int, fn func(bit int)), moves []Move) (*Summary, error) {
	geo := h.Geo()
	regions := geo.Regions()
	s := &Summary{
		Moves:   moves,
		occ:     make([]int, regions),
		dataOff: geo.DataOff,
		base:    h.Base(),
	}

	// Decode (begin,end) mark-bit pairs into (src,size) runs — Moves whose
	// destinations are assigned below — with one device read per bitmap
	// word (ForEachSet), so the summary's cost is proportional to the
	// bitmap, not to the object count. The size of every live object is
	// recoverable from the bitmap alone, which is what makes this phase
	// rerunnable after a crash even when source bytes have been
	// overwritten.
	// Mark bits never lie at or above the allocation tops, so the scan is
	// bounded by the heap's used prefix — during recovery the tops come
	// from the persisted region-top table, which the crashed collection
	// had not yet republished.
	usedBits := (h.Top() - geo.DataOff) / layout.WordSize
	begin := -1
	marks(usedBits, func(b int) {
		if begin < 0 {
			begin = b
			return
		}
		src := geo.DataOff + begin*layout.WordSize
		size := (b - begin + 1) * layout.WordSize
		s.Moves = append(s.Moves, Move{Src: src, Dst: src, Size: size})
		s.LiveObjects++
		s.LiveBytes += size
		begin = -1
	})
	if begin >= 0 {
		return nil, errors.New("pgc: mark bitmap has unpaired begin bit")
	}

	regionOf := func(off int) int { return (off - geo.DataOff) / layout.RegionSize }
	regionStart := func(r int) int { return geo.DataOff + r*layout.RegionSize }

	// Per-region live bytes (seeds the destination pool with empty
	// regions) and last-object index (drives the pool recycling).
	liveIn := make([]int, regions)
	lastObj := make([]int, regions)
	for i := range lastObj {
		lastObj[i] = -1
	}
	for i, o := range s.Moves {
		for r := regionOf(o.Src); r <= regionOf(o.Src+o.Size-1); r++ {
			lo := max(o.Src, regionStart(r))
			hi := min(o.Src+o.Size, regionStart(r)+layout.RegionSize)
			liveIn[r] += hi - lo
		}
		lastObj[regionOf(o.Src)] = i
	}
	// The destination pool holds *start offsets* of free space: whole empty
	// regions, the tail of a region behind an in-place (dense or pinned)
	// prefix, and — once fully evacuated — recycled source regions. Always
	// drawing the lowest offset packs the heap downward.
	var pool offHeap
	for r := 0; r < regions; r++ {
		if liveIn[r] == 0 {
			heap.Push(&pool, regionStart(r))
		}
	}

	// Dead-wood dense prefix (as in ParallelScavenge, whose summary phase
	// this derives from): an object stays in place not only when the heap
	// below it is perfectly dense, but as long as the cumulative garbage
	// below it remains a small fraction of the span it buys. Requiring
	// exact density would let a single small death low in the heap force
	// every live object above it through the serial evacuation pass; the
	// budget caps the wasted space at 1/deadWoodDenominator of the prefix
	// while keeping evacuation proportional to real fragmentation. The
	// interior gaps are plugged by the fill pass (fillers, recyclable
	// holes), so the prefix still parses and the space is allocatable.
	// The cutoff is a pure function of the mark bitmap, so recovery
	// recomputes it bit-identically.
	densePrefixEnd := geo.DataOff
	{
		cursor, dead := geo.DataOff, 0
		for _, o := range s.Moves {
			dead += o.Src - cursor
			cursor = o.Src + o.Size
			if dead*deadWoodDenominator <= cursor-geo.DataOff {
				densePrefixEnd = cursor
			}
		}
	}

	// Assign destinations in address order. The invariants that make the
	// source-as-undo-log protocol sound:
	//
	//   - free space enters the pool only when nothing live remains to read
	//     from it: empty regions up front, evacuated regions and in-place
	//     tails only after the region's last source object is assigned;
	//   - compaction executes moves in the same ascending order, so by the
	//     time a destination is written, every object that lived there has
	//     already been copied out.
	inPlaceEnd := make([]int, regions) // prefix occupied by non-moving objects
	destRegion, destFill := -1, 0
	retireDest := func() {
		if destRegion >= 0 {
			s.occ[destRegion] = destFill - regionStart(destRegion)
			destRegion = -1
		}
	}
	for i := range s.Moves {
		o := &s.Moves[i]
		srcRegion := regionOf(o.Src)
		var dst int
		switch {
		case o.Src+o.Size <= densePrefixEnd:
			dst = o.Src
		case o.Size > pheap.HugeThreshold:
			// Pinned humongous object: allocated on a region-aligned run
			// of its own, stays put. Its final region's tail becomes
			// destination space immediately only while nothing else lives
			// there: an earlier collection may have packed objects behind
			// the tail, and then the last of them releases it, below, like
			// the space behind any other in-place prefix — releasing it
			// here as well would hand the same bytes out twice.
			dst = o.Src
			tail := o.Src + o.Size
			if last := lastObj[regionOf(tail-1)]; tail%layout.RegionSize != 0 && (last < 0 || last == i) {
				heap.Push(&pool, tail)
			}
		default:
			// A pool entry is a whole region or the tail behind an
			// in-place prefix, and a tail can be shorter than the object:
			// such an entry is dropped (the fill pass plugs it), never
			// overrun into the next region.
			for destRegion < 0 || destFill+o.Size > regionStart(destRegion)+layout.RegionSize {
				retireDest()
				if pool.Len() == 0 {
					return nil, ErrNoSpaceToCompact
				}
				destFill = heap.Pop(&pool).(int)
				destRegion = regionOf(destFill)
			}
			dst = destFill
			destFill += o.Size
		}
		o.Dst = dst
		if dst != o.Src {
			s.MovedObjects++
			s.MovedBytes += o.Size
		} else {
			for r := srcRegion; r <= regionOf(o.Src+o.Size-1); r++ {
				end := min(o.Src+o.Size, regionStart(r)+layout.RegionSize)
				if pe := end - regionStart(r); pe > inPlaceEnd[r] {
					inPlaceEnd[r] = pe
				}
				if inPlaceEnd[r] > s.occ[r] {
					s.occ[r] = inPlaceEnd[r]
				}
			}
		}
		if i == lastObj[srcRegion] && srcRegion != destRegion && o.Size <= pheap.HugeThreshold {
			// The region's sources are all assigned: the space behind its
			// in-place prefix (the whole region if it has none) is free to
			// receive later objects.
			free := regionStart(srcRegion) + inPlaceEnd[srcRegion]
			if free < regionStart(srcRegion)+layout.RegionSize {
				heap.Push(&pool, free)
			}
		}
	}
	retireDest()

	// Collect the interior dead-wood gaps: garbage between in-place
	// objects, clipped below each region's in-place prefix end. Space at
	// or above inPlaceEnd[r] is pool-managed (it may have been handed out
	// as destination space, or the region-tail fill covers it), so it is
	// excluded — everything emitted here is provably never a destination
	// and the fill pass may plug it. Gaps are split at region boundaries
	// to keep the fill pass's per-region sharding line-disjoint.
	s.interior = make([][]GapSpan, regions)
	cursor := geo.DataOff
	for _, m := range s.Moves {
		if m.Dst != m.Src {
			continue
		}
		for lo := cursor; lo < m.Src; {
			r := regionOf(lo)
			hi := min(m.Src, regionStart(r)+inPlaceEnd[r])
			if hi > lo {
				s.interior[r] = append(s.interior[r], GapSpan{Lo: lo, Hi: hi})
			}
			lo = regionStart(r) + layout.RegionSize
		}
		if e := m.Src + m.Size; e > cursor {
			cursor = e
		}
	}

	// New top: one past the highest finally-occupied byte.
	s.NewTop = geo.DataOff
	for r := 0; r < regions; r++ {
		if s.occ[r] > 0 {
			s.NewTop = regionStart(r) + s.occ[r]
		}
	}
	return s, nil
}

// Forward maps a pre-GC object address to its post-GC address. Addresses
// outside the heap (DRAM refs, other heaps, null) map to themselves, as do
// unmoved objects.
func (s *Summary) Forward(ref layout.Ref) layout.Ref {
	if ref == layout.NullRef {
		return ref
	}
	off := int(ref - s.base)
	i := sort.Search(len(s.Moves), func(i int) bool { return s.Moves[i].Src >= off })
	if i < len(s.Moves) && s.Moves[i].Src == off {
		return s.base + layout.Ref(s.Moves[i].Dst)
	}
	return ref
}

// Occupancy reports the final occupied prefix of region r.
func (s *Summary) Occupancy(r int) int { return s.occ[r] }

// InteriorGaps reports region r's interior dead-wood gaps, ascending.
func (s *Summary) InteriorGaps(r int) []GapSpan { return s.interior[r] }

// offHeap is a min-heap of device offsets under container/heap.
type offHeap []int

func (p offHeap) Len() int           { return len(p) }
func (p offHeap) Less(i, j int) bool { return p[i] < p[j] }
func (p offHeap) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *offHeap) Push(x any)        { *p = append(*p, x.(int)) }
func (p *offHeap) Pop() any {
	v := (*p)[len(*p)-1]
	*p = (*p)[:len(*p)-1]
	return v
}
