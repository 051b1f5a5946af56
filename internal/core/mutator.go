package core

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/pheap"
)

// Mutator is a per-goroutine allocation and mutation context: the
// runtime analog of a JVM mutator thread with a thread-local allocation
// buffer. Its object model is the embedded Accessor's — the same
// surface, names and signatures as a Runtime's — owned: it pins the
// heap that was active when it was created and does everything in that
// heap through its own pheap.Allocator, so steady-state allocation
// touches no shared lock — the PLAB bump path persists only the
// mutator's own region top — and neither does a reference store of a
// persistent value; a volatile one adds its slot to the shared NVM→DRAM
// set (see remset.go). Strings, bulk copies, field images and the
// flushes go the same way: its own device view, its own PLAB, a
// traversal state of its own. An object of another heap is reached
// through that heap's ownerless context, exactly as a Runtime reaches
// it.
//
// A Mutator is not safe for concurrent use; give each goroutine its own.
// Class metadata work (Define, safety checks, Klass-segment append,
// constant-pool resolution) happens once per class per mutator.
//
// Every Mutator operation is a safepoint interval: it runs pinned on the
// mutator's own safepoint slot (a store to a line only this mutator
// writes and a load of the runtime's read-mostly stopping flag — no
// shared read-modify-write), and the collector's pauses wait for it to
// finish (the mutator handshake). References held across operations can
// be invalidated by a pause — compaction moves objects and patches only
// roots it can see (handles, named roots, heap and volatile slots), never
// Go locals. Wrap multi-step sequences in Do to pin the world for their
// duration:
//
//	m.Do(func() {
//		head, _ := m.GetRoot("list")
//		n, _ := m.PNew(node, 0)
//		m.SetRefFast(n, nextF, head)
//		m.SetRoot("list", n)
//	})
//
// Inside Do, call the mutator: every method of the surface is re-entrant
// there (it finds the world already pinned and enters nothing). The same
// call on the Runtime would enter a second safepoint interval and can
// deadlock against a collector waiting to pause.
type Mutator struct {
	Accessor
}

// NewMutator attaches a new mutator context to the active heap.
func (rt *Runtime) NewMutator() (*Mutator, error) {
	h := rt.active.Load()
	if h == nil {
		return nil, fmt.Errorf("core: no persistent heap loaded")
	}
	return &Mutator{Accessor{
		rt:       rt,
		h:        h,
		alloc:    h.NewAllocator(),
		slot:     rt.world.NewSlot(),
		prepared: make(map[*klass.Klass]bool),
	}}, nil
}

// Heap reports the persistent heap this mutator allocates into.
func (m *Mutator) Heap() *pheap.Heap { return m.h }

// AllocStats snapshots the underlying allocator's own-path counters.
func (m *Mutator) AllocStats() pheap.AllocatorStats { return m.alloc.Stats() }

// Do runs fn with the world pinned: no GC pause can begin until fn
// returns, so references obtained inside fn stay valid throughout it.
// Keep fn short — it delays every collector pause (and any other caller
// of a stop-the-world operation). Do must not nest.
func (m *Mutator) Do(fn func()) {
	t := m.slot.Pin()
	m.inDo = true
	defer func() {
		m.inDo = false
		m.slot.Unpin(t)
	}()
	fn()
}

// Release retires the mutator: its PLAB headroom and recycled hole go
// back to the heap's dispenser for the next mutator to continue filling
// (pheap.Allocator.Release). Like every mutator operation it is a
// safepoint interval; the safepoint slot is given up after the interval
// ends (or, inside Do, keeps holding pauses off until Do returns).
func (m *Mutator) Release() {
	defer m.slot.Retire()
	defer m.exit(m.enter())
	m.alloc.Release()
}
