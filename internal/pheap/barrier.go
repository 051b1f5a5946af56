package pheap

import (
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry"
)

// The reference-store barrier. Every store of a reference into a
// persistent object owes the runtime two things, in this order:
//
//  1. the store itself, one atomic machine store, so a concurrent load of
//     the slot (a lock-free index reader, a volatile collection patching
//     remembered slots) never tears against it.
//  2. for a volatile value, the slot's entry in the NVM→DRAM remembered
//     set the runtime above (internal/core) keeps: the sink's Remember,
//     after the store and in the same safepoint interval. Any other value
//     owes nothing: the set may keep a slot that no longer holds a
//     volatile reference, and whoever reads the set re-derives membership
//     from the slot's current value (core's remset.go).
//
// StoreRef is the whole sequence. The heap cannot tell volatile from
// persistent itself, so callers pass the classification in and core
// installs a RemsetSink per heap to receive the slots; a heap without a
// sink (standalone pheap, every pshard heap) has no remembered set and
// records nothing.

// RemsetSink receives remembered slots and classifies references; the
// runtime that owns the remembered set installs one per heap with
// SetRemsetSink. Implementations must be safe for concurrent use: every
// context of the heap stores through it.
type RemsetSink interface {
	// Remember adds slot, the absolute address of a reference slot that
	// now holds a volatile reference, to the remembered set.
	Remember(slot layout.Ref)
	// RefIsVolatile reports whether ref points into the volatile heap —
	// the membership predicate heap-level writers (ptx) cannot evaluate
	// themselves.
	RefIsVolatile(ref layout.Ref) bool
}

// SetRemsetSink installs the remembered-set consumer for this heap. The
// runtime calls it when the heap is attached, before any mutator runs;
// the atomic store keeps late readers race-free regardless.
func (h *Heap) SetRemsetSink(s RemsetSink) {
	if s != nil {
		h.remsetSink.Store(&s)
	}
}

// RefIsVolatile classifies ref through the heap's sink, for writers that
// cannot tell themselves (ptx). Without a sink nothing is volatile.
func (h *Heap) RefIsVolatile(ref layout.Ref) bool {
	sink := h.remsetSink.Load()
	return sink != nil && ref != layout.NullRef && (*sink).RefIsVolatile(ref)
}

// StoreRef stores val into the reference slot at byte offset boff of the
// persistent object at obj, with the barrier around it. volatile
// says whether val points into the volatile heap. On the owner's
// allocator everything but a volatile value's Remember lands in state
// only the owner writes; on the heap's ownerless context (Heap.Ownerless)
// the same code runs over the shared counters. A persistent val is
// settled first (Settle): the slot may be durable before the store
// returns, and must not name a header that is not.
func (a *Allocator) StoreRef(obj layout.Ref, boff int, val layout.Ref, volatile bool) {
	if !volatile {
		a.Settle(val)
	}
	h := a.heap
	a.view.WriteU64Atomic(h.OffOf(obj)+boff, uint64(val))
	if volatile {
		if sink := h.remsetSink.Load(); sink != nil {
			(*sink).Remember(obj + layout.Ref(boff))
		}
	}
	// Attribution: refstore.stores and the barrier's own device op, the
	// store.
	if c := a.cell; c != nil {
		c.Inc(telemetry.CtrRefStores)
		if !a.placing { // inside an allocation the device ops are the allocation's
			c.Dev(nvm.SubRefstore, 0, 1, 0, 0)
		}
	} else if sc := h.tel.Shared(); sc != nil {
		// No cell of its own: the ownerless context, counted in the
		// registry's shared cell so the op mix stays complete.
		sc.AtomicInc(telemetry.CtrRefStores)
		sc.AtomicDev(nvm.SubRefstore, 0, 1, 0, 0)
	}
}
