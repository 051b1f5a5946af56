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
//  2. a remembered-set delta: the slot's address and whether it now holds
//     a volatile reference. The runtime above (internal/core) keeps the
//     precise NVM→DRAM remembered set; touching it on every store would
//     put a shared lock on the hot path, so deltas are buffered per
//     context and merged at publication points only — transaction commit,
//     safepoint entry (PrepareForCollection), and buffer overflow.
//
// The buffer belongs to the storing context, the Allocator, behind one
// mutex that only the owner and a publishing collector ever take. Both
// steps happen under one hold of it: publication re-derives membership
// from the slot's current value, so a delta drained before its store had
// landed would be judged by the stale value and the edge lost for good.
// Under the mutex no drain can come between them.
//
// StoreRef is the whole sequence. The heap cannot tell volatile from
// persistent itself, so callers pass the classification in and core
// installs a RemsetSink per heap to receive the deltas; a heap without a
// sink (standalone pheap, every pshard heap) has no remembered set and
// records none.

// RemsetDelta is one pending remembered-set mutation: the absolute slot
// address and whether the slot now holds a volatile reference (Add) or a
// persistent/null one (Remove). Deltas for one slot are applied in append
// order, so the last store wins, exactly as eager updates would.
type RemsetDelta struct {
	Slot layout.Ref
	Add  bool
}

// RemsetSink consumes published deltas and classifies references; the
// runtime that owns the remembered set installs one per heap with
// SetRemsetSink. Implementations must be safe for concurrent use: owners
// publish on overflow while collectors publish at safepoints.
type RemsetSink interface {
	// PublishRemsetDeltas applies a batch to the shared remembered set in
	// slice order. The batch is lent: it may be reordered in place, and
	// its publisher reuses the array once the call returns.
	PublishRemsetDeltas([]RemsetDelta)
	// RefIsVolatile reports whether ref points into the volatile heap —
	// the membership predicate heap-level writers (ptx) cannot evaluate
	// themselves.
	RefIsVolatile(ref layout.Ref) bool
}

// RemsetDeltaOverflow is the per-context record count at which the owner
// publishes its own deltas instead of letting them pile up — the third
// publication point. Large enough that publication cost amortizes to
// noise per store; small enough that a context never holds more than a
// few cache lines of pending records.
const RemsetDeltaOverflow = 512

// SetRemsetSink installs the remembered-set consumer for this heap. The
// runtime calls it when the heap is attached, before any mutator runs;
// the atomic store keeps late readers (overflow publishes on other
// goroutines) race-free regardless.
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
// allocator everything lands in state only the owner writes; on the
// heap's ownerless context (Heap.Ownerless) the same code runs over the
// shared counters and the one shared buffer. A persistent val is
// settled first (Settle): the slot may be durable before the store
// returns, and must not name a header that is not.
func (a *Allocator) StoreRef(obj layout.Ref, boff int, val layout.Ref, volatile bool) {
	if !volatile {
		a.Settle(val)
	}
	h := a.heap
	off := h.OffOf(obj) + boff
	if h.remsetSink.Load() == nil {
		a.view.WriteU64Atomic(off, uint64(val))
	} else {
		a.bufMu.Lock()
		a.view.WriteU64Atomic(off, uint64(val))
		a.deltas = append(a.deltas, RemsetDelta{Slot: obj + layout.Ref(boff), Add: volatile})
		overflow := len(a.deltas) >= RemsetDeltaOverflow
		a.bufMu.Unlock()
		if overflow {
			a.PublishRemsetDeltas()
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

// PublishRemsetDeltas drains this context's pending deltas into the
// heap's sink — what a transaction commit and the owner's own overflow
// call. Safe against the owner's concurrent stores: a store that has not
// yet appended its delta has not yet hit the device either. The drained
// slice goes back to the owner as its next buffer unless the owner has
// started a new one meanwhile, so a steady overflow cycle allocates
// nothing.
func (a *Allocator) PublishRemsetDeltas() {
	a.bufMu.Lock()
	ds := a.deltas
	if len(ds) == 0 {
		a.bufMu.Unlock()
		return
	}
	a.deltas = nil
	a.bufMu.Unlock()
	a.heap.publishDeltas(ds)
	a.bufMu.Lock()
	if a.deltas == nil {
		a.deltas = ds[:0]
	}
	a.bufMu.Unlock()
}

// publishDeltas hands one drained batch to the sink. Publication is a
// cold path and may run on a collector draining another owner's context,
// so the counts go to the registry's shared cell with atomic ops.
func (h *Heap) publishDeltas(ds []RemsetDelta) {
	if len(ds) == 0 {
		return
	}
	if sc := h.tel.Shared(); sc != nil {
		sc.AtomicInc(telemetry.CtrRemsetPublish)
		sc.AtomicAdd(telemetry.CtrRemsetDeltas, uint64(len(ds)))
	}
	// Deltas are only ever recorded on a heap with a sink, and a sink is
	// never removed.
	(*h.remsetSink.Load()).PublishRemsetDeltas(ds)
}

// contexts snapshots the registered allocators, the ownerless one among
// them.
func (h *Heap) contexts() []*Allocator {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Allocator(nil), h.allocators...)
}

// PublishRemsetDeltas drains every context's pending deltas through the
// sink. PrepareForCollection calls it with the world stopped — the
// safepoint publication point that makes the shared remembered set
// complete before the collector consults it — and the runtime calls
// it before volatile collections and remembered-set snapshots, which run
// inside a safepoint interval beside running mutators.
func (h *Heap) PublishRemsetDeltas() {
	for _, a := range h.contexts() {
		a.PublishRemsetDeltas()
	}
}

// DrainBarrierShard publishes the pending deltas of the contexts whose
// registry index ≡ worker (mod workers) through the sink, so a parallel
// marking pool drains all contexts without two workers contending on
// one. (0, 1) is the full drain, PublishRemsetDeltas.
func (h *Heap) DrainBarrierShard(worker, workers int) {
	ctxs := h.contexts()
	for i := worker; i < len(ctxs); i += workers {
		ctxs[i].PublishRemsetDeltas()
	}
}
