package core

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pheap"
	"espresso/internal/safepoint"
)

// Accessor is the object-model surface — pnew, typed field and array
// access with the write barriers, strings, bulk copies, the §3.5 flushes,
// field images, named roots and the alias-Klass casts — written once and
// embedded by value in its two receivers:
//
//   - a Runtime's is ownerless: every operation is a safepoint interval on
//     the slot all ownerless readers of the runtime's safepoint share, and
//     reaches an object through the ownerless context of the heap holding
//     it (shared device counters). Safe from any goroutine, and the slow
//     path.
//   - a Mutator's is owned: operations pin the mutator's own safepoint
//     slot — or nothing inside Do, which already has — and reach objects
//     of the mutator's heap through its own pheap.Allocator (PLAB, device
//     view, telemetry cell), so the access path shares no lock and no
//     cache line with another mutator — a store of a volatile reference
//     into a persistent slot aside, which adds the slot to the shared
//     remembered set.
//
// Exported methods run inside a safepoint interval; the lowercase helpers
// assume the caller is in one and never enter another.
//
// Field and array stores keep the write barriers that maintain the two
// remembered sets:
//
//   - old-generation slot ← young ref  → recorded for the scavenger;
//   - persistent slot ← volatile ref   → pheap's reference-store barrier
//     (pheap/barrier.go) adds the slot to the NVM-to-DRAM remembered set
//     (volatile-GC roots; remset.go), after the store.
type Accessor struct {
	rt *Runtime

	// slot is where operations pin the safepoint: a mutator's own, the
	// safepoint's shared one (safepoint.Point.Shared) on a Runtime.
	slot *safepoint.Slot
	inDo bool // inside Mutator.Do: already pinned

	// The owned context; all zero on a Runtime's accessor.
	h        *pheap.Heap
	alloc    *pheap.Allocator
	prepared map[*klass.Klass]bool // classes whose metadata work is done

	// flush is FlushTransitive/FlushBatch's traversal state: a mutator's
	// own, or the one every ownerless caller of a runtime shares.
	flush flushState
	// run is PNewImage's allocation-run scratch; a Runtime's stays unused.
	run imageRun
}

// enter begins the operation's safepoint interval unless Do already has,
// on the accessor's slot: a mutator's own, or the one every ownerless
// reader of the runtime's safepoint shares. exit is its paired release and
// takes what enter returned (the shared slot's stripe), so every accessor
// opens with defer a.exit(a.enter()). Both inline into every accessor, so
// inside Do an operation pays one flag test each way.
func (a *Accessor) enter() safepoint.Token {
	if a.inDo {
		return 0
	}
	return a.slot.Pin()
}

func (a *Accessor) exit(t safepoint.Token) {
	if !a.inDo {
		a.slot.Unpin(t)
	}
}

// ctxOf is the one place an access's context is chosen, and the first
// step of every access's address decode: the accessor's own allocator
// when ref is in its heap, else the ownerless context of the heap the
// runtime's snapshot finds for ref, else nil — and only then do callers
// test the volatile heap. The context always belongs to the heap holding
// ref: a mutator reaching into another heap gets that heap's device view
// and telemetry, whole, so a store's device ops count where that heap's
// do.
func (a *Accessor) ctxOf(ref layout.Ref) *pheap.Allocator {
	if a.alloc != nil && a.h.ContainsImage(ref) {
		return a.alloc
	}
	if h := a.rt.heapOf(ref); h != nil {
		return h.Ownerless()
	}
	return nil
}

func (a *Accessor) getWord(ref layout.Ref, boff int) uint64 {
	if x := a.ctxOf(ref); x != nil {
		return x.GetWord(ref, boff)
	}
	if a.rt.vol.Contains(ref) {
		return a.rt.vol.GetWord(ref, boff)
	}
	panic(fmt.Sprintf("core: load from non-object address %#x", uint64(ref)))
}

func (a *Accessor) setWord(ref layout.Ref, boff int, v uint64) {
	if x := a.ctxOf(ref); x != nil {
		x.SetWord(ref, boff, v)
		return
	}
	if a.rt.vol.Contains(ref) {
		a.rt.vol.SetWord(ref, boff, v)
		return
	}
	panic(fmt.Sprintf("core: store to non-object address %#x", uint64(ref)))
}

func (a *Accessor) klassOf(ref layout.Ref) (*klass.Klass, error) {
	if x := a.ctxOf(ref); x != nil {
		return x.KlassOf(ref)
	}
	if a.rt.vol.Contains(ref) {
		return a.rt.vol.KlassOf(ref)
	}
	return nil, fmt.Errorf("core: %#x is not an object address", uint64(ref))
}

func (a *Accessor) arrayLen(ref layout.Ref) int {
	return int(a.getWord(ref, layout.ArrayLenOff))
}

// KlassOf resolves the class of any object, volatile or persistent.
func (a *Accessor) KlassOf(ref layout.Ref) (*klass.Klass, error) {
	defer a.exit(a.enter())
	return a.klassOf(ref)
}

// ArrayLen reports the length of the array at ref.
func (a *Accessor) ArrayLen(ref layout.Ref) int {
	defer a.exit(a.enter())
	return a.arrayLen(ref)
}

// fieldOff resolves a named field to its byte offset; wantRef additionally
// requires it to be reference-typed.
func (a *Accessor) fieldOff(ref layout.Ref, name string, wantRef bool) (int, error) {
	k, err := a.klassOf(ref)
	if err != nil {
		return 0, err
	}
	i, ok := k.FieldIndex(name)
	if !ok {
		return 0, fmt.Errorf("core: class %s has no field %q", k.Name, name)
	}
	if wantRef && k.FieldAt(i).Type != layout.FTRef {
		return 0, fmt.Errorf("core: field %s.%s is not a reference", k.Name, name)
	}
	return layout.FieldOff(i), nil
}

// GetLong reads a primitive field as a 64-bit integer.
func (a *Accessor) GetLong(ref layout.Ref, field string) (int64, error) {
	defer a.exit(a.enter())
	boff, err := a.fieldOff(ref, field, false)
	if err != nil {
		return 0, err
	}
	return int64(a.getWord(ref, boff)), nil
}

// SetLong writes a primitive field as a 64-bit integer.
func (a *Accessor) SetLong(ref layout.Ref, field string, v int64) error {
	defer a.exit(a.enter())
	boff, err := a.fieldOff(ref, field, false)
	if err != nil {
		return err
	}
	a.setWord(ref, boff, uint64(v))
	return nil
}

// GetRef reads a reference field.
func (a *Accessor) GetRef(ref layout.Ref, field string) (layout.Ref, error) {
	defer a.exit(a.enter())
	boff, err := a.fieldOff(ref, field, true)
	if err != nil {
		return 0, err
	}
	return layout.Ref(a.getWord(ref, boff)), nil
}

// SetRef writes a reference field through the write barrier.
func (a *Accessor) SetRef(ref layout.Ref, field string, val layout.Ref) error {
	defer a.exit(a.enter())
	boff, err := a.fieldOff(ref, field, true)
	if err != nil {
		return err
	}
	return a.storeRef(ref, boff, val)
}

// GetElem reads element i of a reference array.
func (a *Accessor) GetElem(arr layout.Ref, i int) (layout.Ref, error) {
	defer a.exit(a.enter())
	if err := a.boundsCheck(arr, i); err != nil {
		return 0, err
	}
	return layout.Ref(a.getWord(arr, layout.ElemOff(layout.FTRef, i))), nil
}

// SetElem stores element i of a reference array through the write barrier.
func (a *Accessor) SetElem(arr layout.Ref, i int, val layout.Ref) error {
	defer a.exit(a.enter())
	return a.setElem(arr, i, val)
}

func (a *Accessor) setElem(arr layout.Ref, i int, val layout.Ref) error {
	if err := a.boundsCheck(arr, i); err != nil {
		return err
	}
	return a.storeRef(arr, layout.ElemOff(layout.FTRef, i), val)
}

// GetLongElem reads element i of a long array.
func (a *Accessor) GetLongElem(arr layout.Ref, i int) (int64, error) {
	defer a.exit(a.enter())
	if err := a.boundsCheck(arr, i); err != nil {
		return 0, err
	}
	return int64(a.getWord(arr, layout.ElemOff(layout.FTLong, i))), nil
}

// SetLongElem stores element i of a long array.
func (a *Accessor) SetLongElem(arr layout.Ref, i int, v int64) error {
	defer a.exit(a.enter())
	if err := a.boundsCheck(arr, i); err != nil {
		return err
	}
	a.setWord(arr, layout.ElemOff(layout.FTLong, i), uint64(v))
	return nil
}

func (a *Accessor) boundsCheck(arr layout.Ref, i int) error {
	k, err := a.klassOf(arr)
	if err != nil {
		return err
	}
	if !k.IsArray() {
		return fmt.Errorf("core: %s is not an array class", k.Name)
	}
	if n := a.arrayLen(arr); i < 0 || i >= n {
		return fmt.Errorf("core: index %d out of bounds for length %d", i, n)
	}
	return nil
}

// storeRef performs a reference store with its barrier. For a persistent
// object that is pheap's, on the context ctxOf picks: the calling
// mutator's own cell and device view, or the ownerless ones of the heap
// holding obj. The paper permits NVM→DRAM references at the
// language level (§3.2); type-based safety forbids them (§3.4).
func (a *Accessor) storeRef(obj layout.Ref, boff int, val layout.Ref) error {
	rt := a.rt
	if x := a.ctxOf(obj); x != nil {
		isVol := val != layout.NullRef && rt.vol.Contains(val)
		if isVol && rt.cfg.Safety == TypeBased {
			return fmt.Errorf("core: type-based safety forbids storing a volatile reference into NVM")
		}
		if !isVol {
			a.settleElsewhere(x, val)
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

// settleElsewhere is the half of a store's settle pheap cannot do: x's
// StoreRef settles a value of x's own heap, and a persistent val of
// another heap is settled here, in the heap that holds it, on the context
// ctxOf picks for it — before the store through x can make a durable word
// name it (pheap's alloc.go, "deferred header").
func (a *Accessor) settleElsewhere(x *pheap.Allocator, val layout.Ref) {
	if val == layout.NullRef || x.Heap().Contains(val) {
		return
	}
	if y := a.ctxOf(val); y != nil {
		y.Settle(val)
	}
}
