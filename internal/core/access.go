package core

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// Field and array access with the write barriers that maintain the two
// remembered sets and the concurrent collector's SATB invariant:
//
//   - old-generation slot ← young ref  → recorded for the scavenger;
//   - persistent slot ← any ref        → pheap's reference-store barrier
//     (pheap/barrier.go): the overwritten referent reaches a concurrent
//     marker before it is lost, and the NVM-to-DRAM remembered set (used
//     as volatile-GC roots, policed by type-based safety, nullified by
//     the zeroing scan) learns whether the slot now holds a volatile
//     reference.
//
// Public accessors run inside a safepoint interval; the lowercase helpers
// assume the caller is in one and never enter another. Each takes the
// calling mutator as its context (see Mutator), nil from the Runtime-level
// accessors.

// ctxOf is the one place an access's context is chosen: the mutator
// context of the persistent heap whose image holds ref — m's own
// allocator when that heap is m's, the heap's ownerless context
// otherwise — or nil when no loaded heap holds ref. The context always
// belongs to the heap holding ref: a mutator reaching into another heap
// gets that heap's device view, barrier buffers and telemetry, whole, so
// a store's records land where that heap's collector drains.
func (rt *Runtime) ctxOf(m *Mutator, ref layout.Ref) *pheap.Allocator {
	if m != nil && m.h.ContainsImage(ref) {
		return m.alloc
	}
	if h := rt.heapOf(ref); h != nil {
		return h.Ownerless()
	}
	return nil
}

func (rt *Runtime) getWord(m *Mutator, ref layout.Ref, boff int) uint64 {
	if rt.vol.Contains(ref) {
		return rt.vol.GetWord(ref, boff)
	}
	if x := rt.ctxOf(m, ref); x != nil {
		return x.GetWord(ref, boff)
	}
	panic(fmt.Sprintf("core: load from non-object address %#x", uint64(ref)))
}

func (rt *Runtime) setWord(m *Mutator, ref layout.Ref, boff int, v uint64) {
	if rt.vol.Contains(ref) {
		rt.vol.SetWord(ref, boff, v)
		return
	}
	if x := rt.ctxOf(m, ref); x != nil {
		x.SetWord(ref, boff, v)
		return
	}
	panic(fmt.Sprintf("core: store to non-object address %#x", uint64(ref)))
}

func (rt *Runtime) arrayLen(m *Mutator, ref layout.Ref) int {
	return int(rt.getWord(m, ref, layout.ArrayLenOff))
}

// ArrayLen reports the length of the array at ref.
func (rt *Runtime) ArrayLen(ref layout.Ref) int {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.arrayLen(nil, ref)
}

// fieldOff resolves a named field to its byte offset.
func (rt *Runtime) fieldOff(m *Mutator, ref layout.Ref, name string) (int, *klass.Klass, error) {
	k, err := rt.klassOf(m, ref)
	if err != nil {
		return 0, nil, err
	}
	i, ok := k.FieldIndex(name)
	if !ok {
		return 0, nil, fmt.Errorf("core: class %s has no field %q", k.Name, name)
	}
	return layout.FieldOff(i), k, nil
}

// GetLong reads a primitive field as a 64-bit integer.
func (rt *Runtime) GetLong(ref layout.Ref, field string) (int64, error) {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, _, err := rt.fieldOff(nil, ref, field)
	if err != nil {
		return 0, err
	}
	return int64(rt.getWord(nil, ref, boff)), nil
}

// SetLong writes a primitive field as a 64-bit integer.
func (rt *Runtime) SetLong(ref layout.Ref, field string, v int64) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, _, err := rt.fieldOff(nil, ref, field)
	if err != nil {
		return err
	}
	rt.setWord(nil, ref, boff, uint64(v))
	return nil
}

// GetRef reads a reference field.
func (rt *Runtime) GetRef(ref layout.Ref, field string) (layout.Ref, error) {
	rt.world.RLock()
	defer rt.world.RUnlock()
	boff, k, err := rt.fieldOff(nil, ref, field)
	if err != nil {
		return 0, err
	}
	if i, _ := k.FieldIndex(field); k.FieldAt(i).Type != layout.FTRef {
		return 0, fmt.Errorf("core: field %s.%s is not a reference", k.Name, field)
	}
	return layout.Ref(rt.getWord(nil, ref, boff)), nil
}

// SetRef writes a reference field through the write barrier.
func (rt *Runtime) SetRef(ref layout.Ref, field string, val layout.Ref) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.setRefNamed(nil, ref, field, val)
}

func (rt *Runtime) setRefNamed(m *Mutator, ref layout.Ref, field string, val layout.Ref) error {
	boff, k, err := rt.fieldOff(m, ref, field)
	if err != nil {
		return err
	}
	if i, _ := k.FieldIndex(field); k.FieldAt(i).Type != layout.FTRef {
		return fmt.Errorf("core: field %s.%s is not a reference", k.Name, field)
	}
	return rt.storeRef(m, ref, boff, val)
}

// GetElem reads element i of a reference array.
func (rt *Runtime) GetElem(arr layout.Ref, i int) (layout.Ref, error) {
	rt.world.RLock()
	defer rt.world.RUnlock()
	if err := rt.boundsCheck(nil, arr, i); err != nil {
		return 0, err
	}
	return layout.Ref(rt.getWord(nil, arr, layout.ElemOff(layout.FTRef, i))), nil
}

// SetElem stores element i of a reference array through the write barrier.
func (rt *Runtime) SetElem(arr layout.Ref, i int, val layout.Ref) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	return rt.setElem(nil, arr, i, val)
}

func (rt *Runtime) setElem(m *Mutator, arr layout.Ref, i int, val layout.Ref) error {
	if err := rt.boundsCheck(m, arr, i); err != nil {
		return err
	}
	return rt.storeRef(m, arr, layout.ElemOff(layout.FTRef, i), val)
}

// GetLongElem reads element i of a long array.
func (rt *Runtime) GetLongElem(arr layout.Ref, i int) (int64, error) {
	rt.world.RLock()
	defer rt.world.RUnlock()
	if err := rt.boundsCheck(nil, arr, i); err != nil {
		return 0, err
	}
	return int64(rt.getWord(nil, arr, layout.ElemOff(layout.FTLong, i))), nil
}

// SetLongElem stores element i of a long array.
func (rt *Runtime) SetLongElem(arr layout.Ref, i int, v int64) error {
	rt.world.RLock()
	defer rt.world.RUnlock()
	if err := rt.boundsCheck(nil, arr, i); err != nil {
		return err
	}
	rt.setWord(nil, arr, layout.ElemOff(layout.FTLong, i), uint64(v))
	return nil
}

func (rt *Runtime) boundsCheck(m *Mutator, arr layout.Ref, i int) error {
	k, err := rt.klassOf(m, arr)
	if err != nil {
		return err
	}
	if !k.IsArray() {
		return fmt.Errorf("core: %s is not an array class", k.Name)
	}
	if n := rt.arrayLen(m, arr); i < 0 || i >= n {
		return fmt.Errorf("core: index %d out of bounds for length %d", i, n)
	}
	return nil
}

// storeRef performs a reference store with its barrier. For a persistent
// object that is pheap's, on the context ctxOf picks: the calling
// mutator's own buffers, cell and device view, or the ownerless ones of
// the heap holding obj. The paper permits NVM→DRAM references at the
// language level (§3.2); type-based safety forbids them (§3.4).
func (rt *Runtime) storeRef(m *Mutator, obj layout.Ref, boff int, val layout.Ref) error {
	if x := rt.ctxOf(m, obj); x != nil {
		isVol := val != layout.NullRef && rt.vol.Contains(val)
		if isVol && rt.cfg.Safety == TypeBased {
			return fmt.Errorf("core: type-based safety forbids storing a volatile reference into NVM")
		}
		x.StoreRef(obj, boff, val, isVol)
		return nil
	}
	// Volatile object: old→young stores feed the scavenger's remset.
	if rt.vol.InOld(obj) && val != layout.NullRef && rt.vol.InYoung(val) {
		rt.vol.RecordOldToYoung(obj + layout.Ref(boff))
	}
	rt.vol.SetWord(obj, boff, uint64(val))
	return nil
}

// NVMToVolSlots snapshots the persistent-to-volatile remembered set
// (diagnostics and tests). Pending deltas are published first, so the
// snapshot reflects every store issued before the call.
func (rt *Runtime) NVMToVolSlots() []layout.Ref {
	rt.world.RLock()
	defer rt.world.RUnlock()
	rt.publishRemsetDeltas()
	return rt.nvmToVol.Snapshot()
}

// publishRemsetDeltas drains every heap's pending remembered-set deltas
// into the shared set. Callers hold the safepoint read lock (a drain is
// safe against concurrent owner appends: each context's buffer mutex
// serializes them, and a store that has not yet appended its delta has
// not yet hit the device either).
func (rt *Runtime) publishRemsetDeltas() {
	for _, h := range rt.heaps {
		h.PublishRemsetDeltas()
	}
}
