// Package pcollections implements persistent data structures over PJH —
// the Espresso-side counterparts of PCJ's types used in the §6.2
// comparison: a boxed long (PersistentLong), tuples, a generic array, an
// array list, and a hash map. They are ordinary Java-object graphs
// allocated with pnew; each mutating operation runs in a ptx undo-log
// transaction so both sides of the comparison offer the same ACID
// guarantee. Reference stores go through ptx.Tx.WriteRefWord — pheap's
// reference-store barrier on the heap's ownerless context — so the
// remembered set sees their stores; the concurrent serving-oriented index
// lives in internal/pindex.
package pcollections

import (
	"errors"
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pheap"
	"espresso/internal/ptx"
)

// World bundles the heap, its registry, and the transaction manager the
// collections operate in.
type World struct {
	H  *pheap.Heap
	TX *ptx.Manager

	boxKlass    *klass.Klass
	entryKlass  *klass.Klass
	listKlass   *klass.Klass
	mapKlass    *klass.Klass
	tupleKlass  map[int]*klass.Klass
	objArrKlass *klass.Klass

	// Field offsets resolved once at world construction — the same
	// resolve-once discipline as core's FieldRef fast path, so the §6.2
	// hot loops do no per-access name-map lookups.
	boxValueOff                                          int
	entryHashOff, entryKeyOff, entryValOff, entryNextOff int
	listSizeOff, listElemsOff                            int
	mapSizeOff, mapBucketsOff                            int
}

// NewWorld prepares the collection classes on a heap.
func NewWorld(h *pheap.Heap) (*World, error) {
	tm, err := ptx.NewManager(h)
	if err != nil {
		return nil, err
	}
	w := &World{H: h, TX: tm, tupleKlass: map[int]*klass.Klass{}}
	reg := h.Registry()
	if w.boxKlass, err = reg.Define(klass.MustInstance("espresso/PLong", nil,
		klass.Field{Name: "value", Type: layout.FTLong})); err != nil {
		return nil, err
	}
	if w.entryKlass, err = reg.Define(klass.MustInstance("espresso/PMapEntry", nil,
		klass.Field{Name: "hash", Type: layout.FTLong},
		klass.Field{Name: "key", Type: layout.FTLong},
		klass.Field{Name: "value", Type: layout.FTRef},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "espresso/PMapEntry"})); err != nil {
		return nil, err
	}
	if w.listKlass, err = reg.Define(klass.MustInstance("espresso/PArrayList", nil,
		klass.Field{Name: "size", Type: layout.FTLong},
		klass.Field{Name: "elems", Type: layout.FTRef})); err != nil {
		return nil, err
	}
	if w.mapKlass, err = reg.Define(klass.MustInstance("espresso/PHashMap", nil,
		klass.Field{Name: "size", Type: layout.FTLong},
		klass.Field{Name: "buckets", Type: layout.FTRef})); err != nil {
		return nil, err
	}
	w.objArrKlass = reg.ObjArray("java/lang/Object")
	w.boxValueOff = fieldOff(w.boxKlass, "value")
	w.entryHashOff = fieldOff(w.entryKlass, "hash")
	w.entryKeyOff = fieldOff(w.entryKlass, "key")
	w.entryValOff = fieldOff(w.entryKlass, "value")
	w.entryNextOff = fieldOff(w.entryKlass, "next")
	w.listSizeOff = fieldOff(w.listKlass, "size")
	w.listElemsOff = fieldOff(w.listKlass, "elems")
	w.mapSizeOff = fieldOff(w.mapKlass, "size")
	w.mapBucketsOff = fieldOff(w.mapKlass, "buckets")
	return w, nil
}

func fieldOff(k *klass.Klass, name string) int {
	i, ok := k.FieldIndex(name)
	if !ok {
		panic("pcollections: missing field " + name)
	}
	return layout.FieldOff(i)
}

// --- PLong (the PersistentLong equivalent) ---

// NewLong allocates a boxed long with ACID semantics.
func (w *World) NewLong(v int64) (layout.Ref, error) {
	ref, err := w.H.Alloc(w.boxKlass, 0)
	if err != nil {
		return 0, err
	}
	err = w.TX.Run(func(tx *ptx.Tx) error {
		return tx.WriteWord(ref, w.boxValueOff, uint64(v))
	})
	return ref, err
}

// LongValue reads a boxed long.
func (w *World) LongValue(ref layout.Ref) int64 {
	return int64(w.H.GetWord(ref, w.boxValueOff))
}

// SetLongValue updates a boxed long transactionally.
func (w *World) SetLongValue(ref layout.Ref, v int64) error {
	return w.TX.Run(func(tx *ptx.Tx) error {
		return tx.WriteWord(ref, w.boxValueOff, uint64(v))
	})
}

// --- Tuples ---

// tupleKlassOf builds (or reuses) the N-ary tuple class.
func (w *World) tupleKlassOf(n int) (*klass.Klass, error) {
	if k, ok := w.tupleKlass[n]; ok {
		return k, nil
	}
	fields := make([]klass.Field, n)
	for i := range fields {
		fields[i] = klass.Field{Name: fmt.Sprintf("f%d", i), Type: layout.FTRef}
	}
	k, err := w.H.Registry().Define(klass.MustInstance(fmt.Sprintf("espresso/PTuple%d", n), nil, fields...))
	if err != nil {
		return nil, err
	}
	w.tupleKlass[n] = k
	return k, nil
}

// NewTuple allocates an n-ary tuple and stores its elements.
func (w *World) NewTuple(elems ...layout.Ref) (layout.Ref, error) {
	k, err := w.tupleKlassOf(len(elems))
	if err != nil {
		return 0, err
	}
	ref, err := w.H.Alloc(k, 0)
	if err != nil {
		return 0, err
	}
	err = w.TX.Run(func(tx *ptx.Tx) error {
		// The field area is one before-image, not one per element.
		if err := tx.Declare(ref, layout.FieldOff(0), len(elems)*layout.WordSize); err != nil {
			return err
		}
		for i, e := range elems {
			if err := tx.WriteRefWord(ref, layout.FieldOff(i), e); err != nil {
				return err
			}
		}
		return nil
	})
	return ref, err
}

// TupleGet reads tuple slot i.
func (w *World) TupleGet(ref layout.Ref, i int) layout.Ref {
	return layout.Ref(w.H.GetWord(ref, layout.FieldOff(i)))
}

// TupleSet writes tuple slot i transactionally.
func (w *World) TupleSet(ref layout.Ref, i int, v layout.Ref) error {
	return w.TX.Run(func(tx *ptx.Tx) error {
		return tx.WriteRefWord(ref, layout.FieldOff(i), v)
	})
}

// --- Generic object array ---

// NewArray allocates a persistent object array.
func (w *World) NewArray(n int) (layout.Ref, error) {
	return w.H.Alloc(w.objArrKlass, n)
}

// ArrayGet reads element i.
func (w *World) ArrayGet(arr layout.Ref, i int) layout.Ref {
	return layout.Ref(w.H.GetWord(arr, layout.ElemOff(layout.FTRef, i)))
}

// ArraySet writes element i transactionally.
func (w *World) ArraySet(arr layout.Ref, i int, v layout.Ref) error {
	return w.TX.Run(func(tx *ptx.Tx) error {
		return tx.WriteRefWord(arr, layout.ElemOff(layout.FTRef, i), v)
	})
}

// --- PArrayList ---

// NewList allocates an array list with the given capacity.
func (w *World) NewList(capacity int) (layout.Ref, error) {
	if capacity < 4 {
		capacity = 4
	}
	elems, err := w.NewArray(capacity)
	if err != nil {
		return 0, err
	}
	ref, err := w.H.Alloc(w.listKlass, 0)
	if err != nil {
		return 0, err
	}
	err = w.TX.Run(func(tx *ptx.Tx) error {
		if err := tx.WriteWord(ref, w.listSizeOff, 0); err != nil {
			return err
		}
		return tx.WriteRefWord(ref, w.listElemsOff, elems)
	})
	return ref, err
}

// ListLen reports the list's element count.
func (w *World) ListLen(list layout.Ref) int {
	return int(w.H.GetWord(list, w.listSizeOff))
}

// ListAdd appends v, growing the backing array by doubling when full.
func (w *World) ListAdd(list layout.Ref, v layout.Ref) error {
	size := w.ListLen(list)
	elems := layout.Ref(w.H.GetWord(list, w.listElemsOff))
	cap := w.H.ArrayLen(elems)
	if size == cap {
		bigger, err := w.NewArray(cap * 2)
		if err != nil {
			return err
		}
		for i := 0; i < size; i++ {
			w.H.SetWord(bigger, layout.ElemOff(layout.FTRef, i),
				w.H.GetWord(elems, layout.ElemOff(layout.FTRef, i)))
		}
		w.H.FlushRange(bigger, 0, w.objArrKlass.SizeOf(cap*2))
		if err := w.TX.Run(func(tx *ptx.Tx) error {
			return tx.WriteRefWord(list, w.listElemsOff, bigger)
		}); err != nil {
			return err
		}
		elems = bigger
	}
	return w.TX.Run(func(tx *ptx.Tx) error {
		if err := tx.WriteRefWord(elems, layout.ElemOff(layout.FTRef, size), v); err != nil {
			return err
		}
		return tx.WriteWord(list, w.listSizeOff, uint64(size+1))
	})
}

// ListGet reads element i.
func (w *World) ListGet(list layout.Ref, i int) (layout.Ref, error) {
	if i < 0 || i >= w.ListLen(list) {
		return 0, fmt.Errorf("pcollections: list index %d out of range", i)
	}
	elems := layout.Ref(w.H.GetWord(list, w.listElemsOff))
	return w.ArrayGet(elems, i), nil
}

// ListSet overwrites element i transactionally.
func (w *World) ListSet(list layout.Ref, i int, v layout.Ref) error {
	if i < 0 || i >= w.ListLen(list) {
		return fmt.Errorf("pcollections: list index %d out of range", i)
	}
	elems := layout.Ref(w.H.GetWord(list, w.listElemsOff))
	return w.ArraySet(elems, i, v)
}

// --- PHashMap (int64 keys → object refs) ---

// NewMap allocates a hash map with the given bucket count.
func (w *World) NewMap(buckets int) (layout.Ref, error) {
	if buckets < 8 {
		buckets = 8
	}
	arr, err := w.NewArray(buckets)
	if err != nil {
		return 0, err
	}
	ref, err := w.H.Alloc(w.mapKlass, 0)
	if err != nil {
		return 0, err
	}
	err = w.TX.Run(func(tx *ptx.Tx) error {
		if err := tx.WriteWord(ref, w.mapSizeOff, 0); err != nil {
			return err
		}
		return tx.WriteRefWord(ref, w.mapBucketsOff, arr)
	})
	return ref, err
}

func mixHash(k int64) uint64 { return layout.MixHash64(k) }

// MapPut inserts or updates key → value.
func (w *World) MapPut(m layout.Ref, key int64, value layout.Ref) error {
	buckets := layout.Ref(w.H.GetWord(m, w.mapBucketsOff))
	nb := w.H.ArrayLen(buckets)
	slot := int(mixHash(key) % uint64(nb))
	head := w.ArrayGet(buckets, slot)
	for e := head; e != layout.NullRef; e = layout.Ref(w.H.GetWord(e, w.entryNextOff)) {
		if int64(w.H.GetWord(e, w.entryKeyOff)) == key {
			return w.TX.Run(func(tx *ptx.Tx) error {
				return tx.WriteRefWord(e, w.entryValOff, value)
			})
		}
	}
	entry, err := w.H.Alloc(w.entryKlass, 0)
	if err != nil {
		return err
	}
	size := int64(w.H.GetWord(m, w.mapSizeOff))
	return w.TX.Run(func(tx *ptx.Tx) error {
		// One log batch for the three places the put stores to: the entry's
		// four contiguous fields, the bucket slot and the size word.
		if err := errors.Join(
			tx.Declare(entry, w.entryHashOff, 4*layout.WordSize),
			tx.Declare(buckets, layout.ElemOff(layout.FTRef, slot), layout.WordSize),
			tx.Declare(m, w.mapSizeOff, layout.WordSize)); err != nil {
			return err
		}
		if err := tx.WriteWord(entry, w.entryHashOff, mixHash(key)); err != nil {
			return err
		}
		if err := tx.WriteWord(entry, w.entryKeyOff, uint64(key)); err != nil {
			return err
		}
		if err := tx.WriteRefWord(entry, w.entryValOff, value); err != nil {
			return err
		}
		if err := tx.WriteRefWord(entry, w.entryNextOff, head); err != nil {
			return err
		}
		if err := tx.WriteRefWord(buckets, layout.ElemOff(layout.FTRef, slot), entry); err != nil {
			return err
		}
		return tx.WriteWord(m, w.mapSizeOff, uint64(size+1))
	})
}

// MapGet looks a key up.
func (w *World) MapGet(m layout.Ref, key int64) (layout.Ref, bool) {
	buckets := layout.Ref(w.H.GetWord(m, w.mapBucketsOff))
	nb := w.H.ArrayLen(buckets)
	slot := int(mixHash(key) % uint64(nb))
	for e := w.ArrayGet(buckets, slot); e != layout.NullRef; e = layout.Ref(w.H.GetWord(e, w.entryNextOff)) {
		if int64(w.H.GetWord(e, w.entryKeyOff)) == key {
			return layout.Ref(w.H.GetWord(e, w.entryValOff)), true
		}
	}
	return 0, false
}

// MapRemove deletes a key, reporting whether it was present.
func (w *World) MapRemove(m layout.Ref, key int64) (bool, error) {
	buckets := layout.Ref(w.H.GetWord(m, w.mapBucketsOff))
	nb := w.H.ArrayLen(buckets)
	slot := int(mixHash(key) % uint64(nb))
	nextOff := w.entryNextOff
	var prev layout.Ref
	for e := w.ArrayGet(buckets, slot); e != layout.NullRef; e = layout.Ref(w.H.GetWord(e, nextOff)) {
		if int64(w.H.GetWord(e, w.entryKeyOff)) == key {
			next := w.H.GetWord(e, nextOff)
			size := w.H.GetWord(m, w.mapSizeOff)
			err := w.TX.Run(func(tx *ptx.Tx) error {
				if prev == layout.NullRef {
					if err := tx.WriteRefWord(buckets, layout.ElemOff(layout.FTRef, slot), layout.Ref(next)); err != nil {
						return err
					}
				} else if err := tx.WriteRefWord(prev, nextOff, layout.Ref(next)); err != nil {
					return err
				}
				return tx.WriteWord(m, w.mapSizeOff, size-1)
			})
			return true, err
		}
		prev = e
	}
	return false, nil
}

// MapLen reports the entry count.
func (w *World) MapLen(m layout.Ref) int {
	return int(w.H.GetWord(m, w.mapSizeOff))
}
