package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// Application-level persistence primitives (paper §3.5). The pnew keyword
// only guarantees heap-*metadata* crash consistency; applications persist
// their own data with these field/array/object flushes, each at most
// 8 bytes for the fine-grained forms (atomicity) and each followed by an
// sfence (ordering).

// FlushField persists one named field of a persistent object — the
// Field.flush(obj) reflection API of Figure 12.
func (rt *Runtime) FlushField(obj layout.Ref, field string) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.flushField(nil, obj, field)
}

func (rt *Runtime) flushField(m *Mutator, obj layout.Ref, field string) error {
	x := rt.ctxOf(m, obj)
	if x == nil {
		return fmt.Errorf("core: flush of a non-persistent object")
	}
	boff, _, err := rt.fieldOff(m, obj, field)
	if err != nil {
		return err
	}
	x.FlushRange(obj, boff, layout.WordSize)
	return nil
}

// FlushArrayElem persists element i of a persistent array — the
// Array.flush(z, i) API of Figure 12.
func (rt *Runtime) FlushArrayElem(arr layout.Ref, i int) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.flushArrayElem(nil, arr, i)
}

func (rt *Runtime) flushArrayElem(m *Mutator, arr layout.Ref, i int) error {
	x := rt.ctxOf(m, arr)
	if x == nil {
		return fmt.Errorf("core: flush of a non-persistent array")
	}
	k, err := rt.klassOf(m, arr)
	if err != nil {
		return err
	}
	if !k.IsArray() {
		return fmt.Errorf("core: %s is not an array class", k.Name)
	}
	if err := rt.boundsCheck(m, arr, i); err != nil {
		return err
	}
	et := k.ElemType()
	x.FlushRange(arr, layout.ElemOff(et, i), et.ElemSize())
	return nil
}

// FlushObject persists every data field of a persistent object with a
// single trailing sfence — the coarse-grained Object.flush for scenarios
// where persist order among the fields does not matter.
func (rt *Runtime) FlushObject(obj layout.Ref) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.flushObject(nil, obj)
}

func (rt *Runtime) flushObject(m *Mutator, obj layout.Ref) error {
	x := rt.ctxOf(m, obj)
	if x == nil {
		return fmt.Errorf("core: flush of a non-persistent object")
	}
	k, err := rt.klassOf(m, obj)
	if err != nil {
		return err
	}
	n := 0
	if k.IsArray() {
		n = rt.arrayLen(m, obj)
	}
	x.FlushRange(obj, 0, k.SizeOf(n))
	return nil
}

// flushState is the reusable traversal state behind FlushTransitive and
// FlushBatch: a work stack and visited set (no recursion, no per-call
// map churn after warmup), a scratch buffer for bulk object reads, and a
// per-heap line-aligned range accumulator so each cache line is flushed
// once per call with one trailing fence per device.
type flushState struct {
	stack  []layout.Ref
	seen   map[layout.Ref]struct{}
	buf    []byte
	ranges map[*pheap.Heap][]nvm.Range
}

func (fw *flushState) reset() {
	fw.stack = fw.stack[:0]
	if fw.seen == nil {
		fw.seen = make(map[layout.Ref]struct{})
	} else {
		clear(fw.seen)
	}
	if fw.ranges == nil {
		fw.ranges = make(map[*pheap.Heap][]nvm.Range)
	} else {
		for h, rs := range fw.ranges {
			fw.ranges[h] = rs[:0]
		}
	}
}

// addExtent records an object extent, widened to cache-line boundaries.
func (fw *flushState) addExtent(h *pheap.Heap, off, size int) {
	lo := off &^ (nvm.LineSize - 1)
	hi := (off + size + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	fw.ranges[h] = append(fw.ranges[h], nvm.Range{Off: lo, N: hi - lo})
}

// flushAll merges the accumulated line ranges per heap and issues one
// coalesced FlushBatch (single trailing fence) per device. Overlapping
// and adjacent extents collapse, so no line is written back twice.
func (fw *flushState) flushAll() {
	for h, rs := range fw.ranges {
		if len(rs) == 0 {
			continue
		}
		sorted := true
		for i := 1; i < len(rs); i++ {
			if rs[i].Off < rs[i-1].Off {
				sorted = false
				break
			}
		}
		if !sorted {
			sort.Slice(rs, func(i, j int) bool { return rs[i].Off < rs[j].Off })
		}
		merged := rs[:1]
		for _, r := range rs[1:] {
			last := &merged[len(merged)-1]
			if r.Off <= last.Off+last.N {
				if end := r.Off + r.N; end > last.Off+last.N {
					last.N = end - last.Off
				}
			} else {
				merged = append(merged, r)
			}
		}
		h.Device().FlushBatch(merged)
		fw.ranges[h] = rs[:0]
	}
}

// scanObject decodes the object at ref with at most two bulk device
// reads (header, then body when it can hold references), records its
// flush extent, and pushes its outgoing persistent references.
func (rt *Runtime) scanObject(fw *flushState, h *pheap.Heap, ref layout.Ref) error {
	if cap(fw.buf) < layout.ArrayHdrBytes {
		fw.buf = make([]byte, 4096)
	}
	hdr := fw.buf[:layout.ArrayHdrBytes]
	h.ReadBytesAt(ref, 0, hdr)
	kaddr := layout.Ref(binary.LittleEndian.Uint64(hdr[layout.KlassWordOff:]))
	k, ok := h.KlassByAddr(kaddr)
	if !ok {
		return fmt.Errorf("core: object %#x has dangling klass word %#x", uint64(ref), uint64(kaddr))
	}
	n := 0
	if k.IsArray() {
		n = int(binary.LittleEndian.Uint64(hdr[layout.ArrayLenOff:]))
	}
	size := k.SizeOf(n)
	fw.addExtent(h, h.OffOf(ref), size)

	hasRefs := k.Kind == klass.KindObjArray && n > 0
	if k.Kind == klass.KindInstance {
		for _, f := range k.Fields() {
			if f.Type == layout.FTRef {
				hasRefs = true
				break
			}
		}
	}
	if !hasRefs {
		return nil
	}
	if cap(fw.buf) < size {
		fw.buf = make([]byte, size)
	}
	body := fw.buf[:size]
	h.ReadBytesAt(ref, 0, body)
	// Reuse the canonical ref-slot enumeration over the bulk buffer.
	pheap.RefSlots(bufReader{body}, 0, k, func(slotBoff int) {
		// Slot values may carry low link-state tag bits (layout.RefTagMask,
		// the persistent index's marks); strip them before treating the
		// value as an address.
		child := layout.UntagRef(layout.Ref(binary.LittleEndian.Uint64(body[slotBoff:])))
		if child != layout.NullRef {
			fw.stack = append(fw.stack, child)
		}
	})
	return nil
}

// bufReader adapts an object's bulk-read bytes to the ReadU64 interface
// pheap.RefSlots walks.
type bufReader struct{ b []byte }

func (r bufReader) ReadU64(off int) uint64 { return binary.LittleEndian.Uint64(r.b[off:]) }

// FlushTransitive persists obj and everything persistent reachable from
// it — the "advanced feature ... easily implemented with those basic
// methods" the paper mentions. The traversal is iterative over a
// reusable work stack, objects are parsed with bulk reads, and the
// covered cache lines are deduplicated and flushed once with a single
// trailing fence per device — cost proportional to bytes reached, not
// to references followed. Concurrent flushers serialize on the shared
// traversal state.
func (rt *Runtime) FlushTransitive(obj layout.Ref) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	rt.flushMu.Lock()
	defer rt.flushMu.Unlock()
	fw := &rt.flushWork
	fw.reset()
	fw.stack = append(fw.stack, obj)
	for len(fw.stack) > 0 {
		ref := fw.stack[len(fw.stack)-1]
		fw.stack = fw.stack[:len(fw.stack)-1]
		if _, ok := fw.seen[ref]; ok {
			continue
		}
		h := rt.heapOf(ref)
		if h == nil {
			continue
		}
		fw.seen[ref] = struct{}{}
		if err := rt.scanObject(fw, h, ref); err != nil {
			return err
		}
	}
	fw.flushAll()
	return nil
}

// FlushBatch persists the data of several persistent objects with
// coalesced line flushes and a single trailing fence per device — the
// bulk counterpart of FlushObject for commit paths that persist many
// objects at once. Concurrent flushers serialize on the shared
// traversal state.
func (rt *Runtime) FlushBatch(refs []layout.Ref) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	rt.flushMu.Lock()
	defer rt.flushMu.Unlock()
	fw := &rt.flushWork
	fw.reset()
	for _, ref := range refs {
		h := rt.heapOf(ref)
		if h == nil {
			return fmt.Errorf("core: flush of a non-persistent object %#x", uint64(ref))
		}
		_, size, err := h.SizeOfObjectAt(h.OffOf(ref))
		if err != nil {
			return err
		}
		fw.addExtent(h, h.OffOf(ref), size)
	}
	fw.flushAll()
	return nil
}
