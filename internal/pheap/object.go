package pheap

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry"
)

// Object access and heap parsing. All accessors take virtual addresses
// (layout.Ref) and byte-offsets computed from the klass field tables; the
// type-aware convenience layer lives in internal/core.

// Access is object access on one heap through one accounting view of its
// device (nvm.View). The Heap embeds the ownerless one (and so does its
// ownerless allocator), so h.GetWord and friends count in the device's
// ownerless counters; every other Allocator embeds its own, so a mutator
// that reaches objects through its allocator (core.Mutator, pindex.Ctx,
// pshard.Ctx all hold exactly one) counts in a cell no other goroutine
// writes. The access itself — checks, fault
// hooks, dirty tracking — is the same either way.
type Access struct {
	heap *Heap
	view *nvm.View
}

// Heap reports the heap x reaches into.
func (x Access) Heap() *Heap { return x.heap }

// Ops reports the device operations issued through x so far, as its view
// counted them: how an owner charges an operation what the device saw of
// it (a delta of two Ops) instead of what it expects to have issued. Zero
// for the ownerless Access, whose traffic lands in the shared counters.
func (x Access) Ops() nvm.Ops { return x.view.Ops() }

// KlassOf resolves the klass of the object at ref.
func (x Access) KlassOf(ref layout.Ref) (*klass.Klass, error) {
	kaddr := layout.Ref(x.view.ReadU64(x.heap.OffOf(ref) + layout.KlassWordOff))
	k, ok := x.heap.KlassByAddr(kaddr)
	if !ok {
		return nil, fmt.Errorf("pheap: object %#x has dangling klass word %#x", uint64(ref), uint64(kaddr))
	}
	return k, nil
}

// SizeOfObjectAt decodes the klass and size of the object at device
// offset off.
func (h *Heap) SizeOfObjectAt(off int) (*klass.Klass, int, error) {
	kaddr := layout.Ref(h.dev.ReadU64(off + layout.KlassWordOff))
	k, ok := h.KlassByAddr(kaddr)
	if !ok {
		return nil, 0, fmt.Errorf("pheap: offset %d: dangling klass word %#x", off, uint64(kaddr))
	}
	n := 0
	if k.IsArray() {
		n = int(h.dev.ReadU64(off + layout.ArrayLenOff))
	}
	return k, k.SizeOf(n), nil
}

// ArrayLen reads the length word of the array object at ref.
func (x Access) ArrayLen(ref layout.Ref) int {
	return int(x.view.ReadU64(x.heap.OffOf(ref) + layout.ArrayLenOff))
}

// GetWord loads the 8-byte slot at byte offset boff inside the object.
func (x Access) GetWord(ref layout.Ref, boff int) uint64 {
	return x.view.ReadU64(x.heap.OffOf(ref) + boff)
}

// SetWord stores the 8-byte slot at byte offset boff inside the object.
func (x Access) SetWord(ref layout.Ref, boff int, v uint64) {
	x.view.WriteU64(x.heap.OffOf(ref)+boff, v)
}

// CasWord atomically compares-and-swaps the 8-byte slot at byte offset
// boff of the object at ref — the heap-level cmpxchg the lock-free
// persistent index publishes through. The slot must be 8-aligned (all
// field and element slots are).
func (x Access) CasWord(ref layout.Ref, boff int, old, new uint64) bool {
	return x.view.CompareAndSwapU64(x.heap.OffOf(ref)+boff, old, new)
}

// GetWordAtomic loads an 8-byte object slot with a single atomic machine
// load, for slots another goroutine may be storing to (a lock-free
// index's links, a remembered slot a volatile collection patches).
func (x Access) GetWordAtomic(ref layout.Ref, boff int) uint64 {
	return x.view.ReadU64Atomic(x.heap.OffOf(ref) + boff)
}

// SetWordAtomic stores an 8-byte object slot with a single atomic machine
// store — the mutator half of the marker/mutator pair above. Device
// accounting matches SetWord.
func (x Access) SetWordAtomic(ref layout.Ref, boff int, v uint64) {
	x.view.WriteU64Atomic(x.heap.OffOf(ref)+boff, v)
}

// ReadBytesAt fills p from byte offset boff inside the object — one
// device read regardless of length, the bulk path under string and
// primitive-array copies.
func (x Access) ReadBytesAt(ref layout.Ref, boff int, p []byte) {
	x.view.ReadBytes(x.heap.OffOf(ref)+boff, p)
}

// WriteBytesAt stores p at byte offset boff inside the object — one
// device write regardless of length.
func (x Access) WriteBytesAt(ref layout.Ref, boff int, p []byte) {
	x.view.WriteBytes(x.heap.OffOf(ref)+boff, p)
}

// FlushRange persists n bytes at byte offset boff inside the object,
// followed by a fence — the primitive under the field/array/object flush
// APIs of paper §3.5. A deferred header whose lines the flush covers is
// settled by it, at no line of its own (alloc.go), and counted in
// alloc.headers_flush_covered. The word is loaded before the flush: a load
// that sees the owner's word store also sees its header stores (TSO keeps
// the owner's stores in order), so the flush issued after it writes back a
// line that holds the header. A word loaded only after the fence could
// name a header the flush ran ahead of.
func (a *Allocator) FlushRange(ref layout.Ref, boff, n int) {
	off := a.heap.OffOf(ref) + boff
	c := a.heap.coveredHeader(off, n)
	a.view.Flush(off, n)
	a.view.Fence()
	a.tally(telemetry.CtrHeadersFlushCovered, a.heap.clearCovered(c))
}

// FlushRange is Allocator.FlushRange on the heap's ownerless context.
func (h *Heap) FlushRange(ref layout.Ref, boff, n int) { h.ownerless.FlushRange(ref, boff, n) }

// FlushBatch writes back every device range and issues a single trailing
// fence — the coalesced-persist idiom: clflush each line once, sfence
// once. Callers are expected to pre-merge overlapping ranges (core's flush
// coalescer does); exactly what is handed in is flushed. Like FlushRange,
// it settles the deferred headers it covers.
func (a *Allocator) FlushBatch(ranges []nvm.Range) {
	var buf [4]coveredHeader
	seen := buf[:0]
	for _, rg := range ranges {
		// Merged ranges come sorted, so one region's header repeats in a row.
		if c := a.heap.coveredHeader(rg.Off, rg.N); c.w != 0 && (len(seen) == 0 || seen[len(seen)-1] != c) {
			seen = append(seen, c)
		}
	}
	for _, rg := range ranges {
		a.view.Flush(rg.Off, rg.N)
	}
	a.view.Fence()
	var cleared uint64
	for _, c := range seen {
		cleared += a.heap.clearCovered(c)
	}
	a.tally(telemetry.CtrHeadersFlushCovered, cleared)
}

// coveredHeader is the deferred header of the region holding off if a
// flush of [off, off+n) writes back every line of it (w == 0: none). A
// range starting in one region and running into the next — only a merged
// batch range can — leaves the second region's header to its other
// settles: not clearing a word is always safe.
func (h *Heap) coveredHeader(off, n int) coveredHeader {
	if r, w := h.deferredAt(off); w != 0 {
		lines := nvm.LineRange(off, n)
		if hoff, hn := headerSpan(w); hoff >= lines.Off && hoff+hn <= lines.Off+lines.N {
			return coveredHeader{r, w}
		}
	}
	return coveredHeader{}
}

// clearCovered clears c's word once the flush that covered it is fenced,
// unless its owner has moved on; it reports 1 if it cleared.
func (h *Heap) clearCovered(c coveredHeader) uint64 {
	if c.w != 0 && h.regions[c.r].deferred.CompareAndSwap(c.w, 0) {
		return 1
	}
	return 0
}

// ForEachObject walks the data heap in address order, region by region,
// invoking fn for every object including fillers. It stops early if fn
// returns false. The walk relies on the per-region allocation invariant:
// everything below a region's top is a valid object or filler. Regions
// whose top is unset are skipped; humongous objects carry the walk
// across their interior regions (whose table entries hold the sentinel,
// never a parse entry point).
func (h *Heap) ForEachObject(fn func(off int, k *klass.Klass, size int) bool) error {
	dataEnd := h.geo.DataOff + h.geo.DataSize
	off := h.geo.DataOff
	for r := 0; r < h.geo.DataRegions(); r++ {
		start := h.geo.DataOff + r*layout.RegionSize
		if off < start {
			off = start
		}
		top := int(h.regions[r].top.Load())
		if top <= regionTopHumongousCont || top <= off {
			continue
		}
		for off < top {
			k, size, err := h.SizeOfObjectAt(off)
			if err != nil {
				return fmt.Errorf("pheap: heap parse failed: %w", err)
			}
			if size <= 0 || off+size > dataEnd {
				return fmt.Errorf("pheap: heap parse: impossible size %d at offset %d", size, off)
			}
			if !fn(off, k, size) {
				return nil
			}
			off += size
		}
	}
	return nil
}

// RefSlots invokes fn with the byte offset (within the object) of every
// reference slot of an object of klass k at device offset off. It is the
// pointer-iteration primitive shared by the collectors and safety scans.
func RefSlots(dev interface{ ReadU64(int) uint64 }, off int, k *klass.Klass, fn func(slotBoff int)) {
	switch k.Kind {
	case klass.KindInstance:
		for i, f := range k.Fields() {
			if f.Type == layout.FTRef {
				fn(layout.FieldOff(i))
			}
		}
	case klass.KindObjArray:
		n := int(dev.ReadU64(off + layout.ArrayLenOff))
		for i := 0; i < n; i++ {
			fn(layout.ElemOff(layout.FTRef, i))
		}
	case klass.KindPrimArray:
		// no refs
	}
}

// ZeroingScan implements the zeroing safety level (paper §3.4): walk the
// whole heap and nullify every reference that points outside any loaded
// persistent heap, so stale DRAM pointers surface as NullPointerException
// rather than undefined behaviour. keep reports whether a ref is still
// valid (i.e., points into persistent memory). Returns the number of
// nullified slots.
func (h *Heap) ZeroingScan(keep func(layout.Ref) bool) (int, error) {
	nulled := 0
	err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			return true
		}
		RefSlots(h.dev, off, k, func(slotBoff int) {
			raw := layout.Ref(h.dev.ReadU64(off + slotBoff))
			// Low link-state tag bits (layout.RefTagMask) are not part of
			// the address: a tagged null (e.g. a persisted Harris delete
			// mark over a nil link) is not a stale pointer, and nulling a
			// tagged slot must preserve its marks — erasing a persisted
			// delete mark would resurrect a committed delete.
			v := layout.UntagRef(raw)
			if v != layout.NullRef && !keep(v) {
				h.dev.WriteU64(off+slotBoff, uint64(layout.RefTag(raw)))
				nulled++
			}
		})
		return true
	})
	if err != nil {
		return nulled, err
	}
	if nulled > 0 {
		// One bulk persist for the scan's stores.
		h.dev.Flush(h.geo.DataOff, h.Top()-h.geo.DataOff)
		h.dev.Fence()
	}
	return nulled, nil
}
