package core

import (
	"encoding/binary"
	"fmt"
	"sync"

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
func (a *Accessor) FlushField(obj layout.Ref, field string) error {
	defer a.exit(a.enter())
	x := a.ctxOf(obj)
	if x == nil {
		return fmt.Errorf("core: flush of a non-persistent object")
	}
	boff, err := a.fieldOff(obj, field, false)
	if err != nil {
		return err
	}
	x.FlushRange(obj, boff, layout.WordSize)
	return nil
}

// FlushArrayElem persists element i of a persistent array — the
// Array.flush(z, i) API of Figure 12.
func (a *Accessor) FlushArrayElem(arr layout.Ref, i int) error {
	defer a.exit(a.enter())
	x := a.ctxOf(arr)
	if x == nil {
		return fmt.Errorf("core: flush of a non-persistent array")
	}
	k, err := a.klassOf(arr)
	if err != nil {
		return err
	}
	if !k.IsArray() {
		return fmt.Errorf("core: %s is not an array class", k.Name)
	}
	if err := a.boundsCheck(arr, i); err != nil {
		return err
	}
	et := k.ElemType()
	x.FlushRange(arr, layout.ElemOff(et, i), et.ElemSize())
	return nil
}

// FlushObject persists every data field of a persistent object with a
// single trailing sfence — the coarse-grained Object.flush for scenarios
// where persist order among the fields does not matter.
func (a *Accessor) FlushObject(obj layout.Ref) error {
	defer a.exit(a.enter())
	x := a.ctxOf(obj)
	if x == nil {
		return fmt.Errorf("core: flush of a non-persistent object")
	}
	size, err := sizeOf(x, obj)
	if err != nil {
		return err
	}
	x.FlushRange(obj, 0, size)
	return nil
}

// sizeOf decodes the size of the object at ref through its context: the
// klass word, and the length word of an array.
func sizeOf(x *pheap.Allocator, ref layout.Ref) (int, error) {
	k, err := x.KlassOf(ref)
	if err != nil {
		return 0, err
	}
	n := 0
	if k.IsArray() {
		n = x.ArrayLen(ref)
	}
	return k.SizeOf(n), nil
}

// flushState is the reusable traversal state behind FlushTransitive and
// FlushBatch: a work stack and visited set (no recursion, no per-call
// map churn after warmup), a scratch buffer for bulk object reads, and a
// per-context line-aligned range accumulator so each cache line is
// flushed once per call with one trailing fence per device. mu serializes
// the callers that share one — every ownerless flusher of a runtime; on a
// Mutator it is never contended.
type flushState struct {
	mu     sync.Mutex
	stack  []layout.Ref
	seen   map[layout.Ref]struct{}
	buf    []byte
	ranges map[*pheap.Allocator][]nvm.Range
}

func (fw *flushState) reset() {
	fw.stack = fw.stack[:0]
	if fw.seen == nil {
		fw.seen = make(map[layout.Ref]struct{})
	} else {
		clear(fw.seen)
	}
	if fw.ranges == nil {
		fw.ranges = make(map[*pheap.Allocator][]nvm.Range)
	} else {
		for x, rs := range fw.ranges {
			fw.ranges[x] = rs[:0]
		}
	}
}

// addExtent records the extent of an object reached through x, widened to
// cache-line boundaries.
func (fw *flushState) addExtent(x *pheap.Allocator, ref layout.Ref, size int) {
	fw.ranges[x] = append(fw.ranges[x], nvm.LineRange(x.Heap().OffOf(ref), size))
}

// flushAll merges the accumulated line ranges per context and issues one
// coalesced FlushBatch (single trailing fence) through each. Overlapping
// and adjacent extents collapse, so no line is written back twice.
func (fw *flushState) flushAll() {
	for x, rs := range fw.ranges {
		if len(rs) == 0 {
			continue
		}
		x.FlushBatch(nvm.MergeRanges(rs))
		fw.ranges[x] = rs[:0]
	}
}

// scan decodes the object at ref with at most two bulk device reads
// through x (header, then body when it can hold references), records its
// flush extent, and pushes its outgoing persistent references.
func (fw *flushState) scan(x *pheap.Allocator, ref layout.Ref) error {
	if cap(fw.buf) < layout.ArrayHdrBytes {
		fw.buf = make([]byte, 4096)
	}
	hdr := fw.buf[:layout.ArrayHdrBytes]
	x.ReadBytesAt(ref, 0, hdr)
	kaddr := layout.Ref(binary.LittleEndian.Uint64(hdr[layout.KlassWordOff:]))
	k, ok := x.Heap().KlassByAddr(kaddr)
	if !ok {
		return fmt.Errorf("core: object %#x has dangling klass word %#x", uint64(ref), uint64(kaddr))
	}
	n := 0
	if k.IsArray() {
		n = int(binary.LittleEndian.Uint64(hdr[layout.ArrayLenOff:]))
	}
	size := k.SizeOf(n)
	fw.addExtent(x, ref, size)

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
	x.ReadBytesAt(ref, 0, body)
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
// to references followed. Ownerless flushers serialize on the runtime's
// shared traversal state; a mutator has its own.
func (a *Accessor) FlushTransitive(obj layout.Ref) error {
	defer a.exit(a.enter())
	fw := &a.flush
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.reset()
	fw.stack = append(fw.stack, obj)
	for len(fw.stack) > 0 {
		ref := fw.stack[len(fw.stack)-1]
		fw.stack = fw.stack[:len(fw.stack)-1]
		if _, ok := fw.seen[ref]; ok {
			continue
		}
		x := a.ctxOf(ref)
		if x == nil {
			continue
		}
		fw.seen[ref] = struct{}{}
		if err := fw.scan(x, ref); err != nil {
			return err
		}
	}
	fw.flushAll()
	return nil
}

// FlushBatch persists the data of several persistent objects with
// coalesced line flushes and a single trailing fence per device — the
// bulk counterpart of FlushObject for commit paths that persist many
// objects at once. It shares FlushTransitive's traversal state.
func (a *Accessor) FlushBatch(refs []layout.Ref) error {
	defer a.exit(a.enter())
	fw := &a.flush
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.reset()
	for _, ref := range refs {
		x := a.ctxOf(ref)
		if x == nil {
			return fmt.Errorf("core: flush of a non-persistent object %#x", uint64(ref))
		}
		size, err := sizeOf(x, ref)
		if err != nil {
			return err
		}
		fw.addExtent(x, ref, size)
	}
	fw.flushAll()
	return nil
}
