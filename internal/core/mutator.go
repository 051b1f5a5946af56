package core

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pheap"
	"espresso/internal/safepoint"
)

// Mutator is a per-goroutine allocation and mutation context: the runtime
// analog of a JVM mutator thread with a thread-local allocation buffer
// and thread-local barrier buffers. It pins the heap that was active when
// it was created and does everything in that heap through its own
// pheap.Allocator, so steady-state allocation touches no shared lock —
// the PLAB bump path persists only the mutator's own region top — and
// neither does a reference store: the barrier's pre-write records and
// remembered-set deltas land in the allocator's own buffers, and the
// shared NVM→DRAM set learns about the stores at the next publication
// point (transaction commit, safepoint entry, or buffer overflow; see
// remset.go).
//
// A Mutator is not safe for concurrent use; give each goroutine its own.
// Class metadata work (Define, safety checks, constant-pool resolution,
// Klass-segment append) happens once per class per mutator, serialized
// on the runtime lock.
//
// Every Mutator operation is a safepoint interval: it runs pinned on the
// mutator's own safepoint slot (a store to a line only this mutator
// writes and a load of the runtime's read-mostly stopping flag — no
// shared read-modify-write), and the collector's pauses wait for it to
// finish (the mutator handshake). Its device accesses likewise count in
// its allocator's own view of the device, so two mutators on two cores
// share no cache line on the access path. References held across
// operations can be invalidated by a pause — compaction moves objects
// and patches only roots it can see (handles, named roots, heap and
// volatile slots), never Go locals. Wrap multi-step sequences in Do to
// pin the world for their duration:
//
//	m.Do(func() {
//		head, _ := m.GetRoot("list")
//		n, _ := m.PNew(node, 0)
//		m.SetRefFast(n, nextF, head)
//		m.SetRoot("list", n)
//	})
//
// Inside Do, use the Mutator's own accessors only — Runtime methods
// would enter a second safepoint interval and can deadlock against a
// collector waiting to pause.
//
// The runtime's internal access helpers take a *Mutator as their context
// and resolve it to a pheap.Allocator (ctxOf): the mutator's own for an
// object in its heap, the ownerless context of whichever heap holds the
// object otherwise — which is also what a nil *Mutator, the context of
// the Runtime-level accessors, always gets.
type Mutator struct {
	rt       *Runtime
	h        *pheap.Heap
	alloc    *pheap.Allocator
	slot     *safepoint.Slot
	prepared map[*klass.Klass]bool
	locked   bool // inside Do: already pinned
}

// NewMutator attaches a new mutator context to the active heap.
func (rt *Runtime) NewMutator() (*Mutator, error) {
	h := rt.active
	if h == nil {
		return nil, fmt.Errorf("core: no persistent heap loaded")
	}
	return &Mutator{
		rt:       rt,
		h:        h,
		alloc:    h.NewAllocator(),
		slot:     rt.world.NewSlot(),
		prepared: make(map[*klass.Klass]bool),
	}, nil
}

// Heap reports the persistent heap this mutator allocates into.
func (m *Mutator) Heap() *pheap.Heap { return m.h }

// AllocStats snapshots the underlying allocator's own-path counters.
func (m *Mutator) AllocStats() pheap.AllocatorStats { return m.alloc.Stats() }

// enter pins the mutator's safepoint slot unless Do already has. exit is
// its paired release. The flag is mutator-local state, touched only by
// the owning goroutine.
func (m *Mutator) enter() {
	if !m.locked {
		m.slot.Pin()
	}
}

func (m *Mutator) exit() {
	if !m.locked {
		m.slot.Unpin()
	}
}

// Do runs fn with the world pinned: no GC pause can begin until fn
// returns, so references obtained inside fn stay valid throughout it.
// Keep fn short — it delays every collector pause (and any other caller
// of a stop-the-world operation). Do must not nest.
func (m *Mutator) Do(fn func()) {
	m.slot.Pin()
	m.locked = true
	defer func() {
		m.locked = false
		m.slot.Unpin()
	}()
	fn()
}

// PNew allocates a persistent object of k in the mutator's heap — the
// pnew keyword on this mutator's thread. The first allocation of each
// class runs the shared metadata path (class definition, safety check,
// constant-pool resolution) under the runtime lock; after that the PLAB
// bump path is lock-free.
func (m *Mutator) PNew(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	m.enter()
	defer m.exit()
	if !m.prepared[k] {
		if err := m.prepare(k); err != nil {
			return 0, err
		}
	}
	ref, err := m.alloc.Alloc(k, arrayLen)
	if err != nil {
		return 0, fmt.Errorf("core: pnew %s: %w", k.Name, err)
	}
	return ref, nil
}

func (m *Mutator) prepare(k *klass.Klass) error {
	rt := m.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, err := rt.Reg.Define(k); err != nil {
		return err
	}
	if rt.cfg.Safety == TypeBased {
		if err := rt.checkPersistentClosure(k); err != nil {
			return err
		}
	}
	if _, err := m.h.EnsureKlass(k); err != nil {
		return fmt.Errorf("core: pnew %s: %w", k.Name, err)
	}
	if kaddr, ok := m.h.KlassAddr(k); ok {
		rt.cp.Resolve(k.Name, kaddr)
	}
	m.prepared[k] = true
	return nil
}

// SetRef writes a named reference field through the write barrier, on
// this mutator's own buffers.
func (m *Mutator) SetRef(ref layout.Ref, field string, val layout.Ref) error {
	m.enter()
	defer m.exit()
	return m.rt.setRefNamed(m, ref, field, val)
}

// SetRefFast writes a reference field through a resolved handle, with
// the full write barrier on this mutator's own buffers.
func (m *Mutator) SetRefFast(ref layout.Ref, f FieldRef, val layout.Ref) error {
	m.enter()
	defer m.exit()
	return m.rt.setRefFast(m, ref, f, val)
}

// SetElem stores element i of a reference array through the write
// barrier, on this mutator's own buffers.
func (m *Mutator) SetElem(arr layout.Ref, i int, val layout.Ref) error {
	m.enter()
	defer m.exit()
	return m.rt.setElem(m, arr, i, val)
}

// GetElem reads element i of a reference array on this mutator's thread
// (usable inside Do, unlike the Runtime accessor).
func (m *Mutator) GetElem(arr layout.Ref, i int) (layout.Ref, error) {
	m.enter()
	defer m.exit()
	if err := m.rt.boundsCheck(m, arr, i); err != nil {
		return 0, err
	}
	return layout.Ref(m.rt.getWord(m, arr, layout.ElemOff(layout.FTRef, i))), nil
}

// GetRefFast reads a reference field through a resolved handle.
func (m *Mutator) GetRefFast(ref layout.Ref, f FieldRef) layout.Ref {
	m.enter()
	defer m.exit()
	return m.rt.getRefFast(m, ref, f)
}

// GetLongFast reads a primitive field through a resolved handle.
func (m *Mutator) GetLongFast(ref layout.Ref, f FieldRef) int64 {
	m.enter()
	defer m.exit()
	return m.rt.getLongFast(m, ref, f)
}

// SetLongFast writes a primitive field through a resolved handle.
func (m *Mutator) SetLongFast(ref layout.Ref, f FieldRef, v int64) {
	m.enter()
	defer m.exit()
	m.rt.setLongFast(m, ref, f, v)
}

// FlushField persists one named field of a persistent object on this
// mutator's thread (usable inside Do, unlike the Runtime accessor).
func (m *Mutator) FlushField(obj layout.Ref, field string) error {
	m.enter()
	defer m.exit()
	return m.rt.flushField(m, obj, field)
}

// FlushArrayElem persists element i of a persistent array on this
// mutator's thread.
func (m *Mutator) FlushArrayElem(arr layout.Ref, i int) error {
	m.enter()
	defer m.exit()
	return m.rt.flushArrayElem(m, arr, i)
}

// FlushObject persists every data field of a persistent object, with one
// trailing fence, on this mutator's thread.
func (m *Mutator) FlushObject(obj layout.Ref) error {
	m.enter()
	defer m.exit()
	return m.rt.flushObject(m, obj)
}

// GetRoot fetches a named root (Table 1: getRoot) on this mutator's
// thread.
func (m *Mutator) GetRoot(name string) (layout.Ref, bool) {
	m.enter()
	defer m.exit()
	return m.rt.getRoot(name)
}

// SetRoot names ref as a root (Table 1: setRoot) on this mutator's
// thread.
func (m *Mutator) SetRoot(name string, ref layout.Ref) error {
	m.enter()
	defer m.exit()
	return m.rt.setRoot(name, ref)
}

// Release retires the mutator: its PLAB headroom and recycled hole go
// back to the heap's dispenser for the next mutator to continue filling,
// pre-write records a running mark has not seen move to the heap's
// ownerless context, and pending remembered-set deltas are published
// (pheap.Allocator.Release). Like every mutator operation it is a
// safepoint interval; the safepoint slot is given up after the interval
// ends (or, inside Do, keeps holding pauses off until Do returns).
func (m *Mutator) Release() {
	defer m.slot.Retire()
	m.enter()
	defer m.exit()
	m.alloc.Release()
}
