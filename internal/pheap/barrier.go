package pheap

import (
	"sync/atomic"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry"
)

// The reference-store barrier. Every store of a reference into a
// persistent object owes the runtime three things, in this order:
//
//  1. pre-write: while a concurrent mark runs (the barrier is armed), the
//     overwritten referent is recorded for the marker if it lies below
//     the mark's snapshot — the snapshot-at-the-beginning invariant: every
//     object reachable at the snapshot stays reachable to the marker —
//     and the object's card is dirtied, because the store may point the
//     object at something the marker's outgoing-reference summary never
//     saw. Objects above the snapshot tops are allocate-black and need no
//     record.
//  2. the store itself, one atomic machine store, so the marker's slot
//     loads never tear against it.
//  3. a remembered-set delta: the slot's address and whether it now holds
//     a volatile reference. The runtime above (internal/core) keeps the
//     precise NVM→DRAM remembered set; touching it on every store would
//     put a shared lock on the hot path, so deltas are buffered per
//     context and merged at publication points only — transaction commit,
//     safepoint entry (PrepareForCollection), and buffer overflow.
//
// Both buffers belong to the storing context, the Allocator, behind one
// mutex that only the owner and a draining collector ever take. Steps 2
// and 3 happen under one hold of it: publication re-derives membership
// from the slot's current value, so a delta drained before its store had
// landed would be judged by the stale value and the edge lost for good.
// Under the mutex no drain can come between them.
//
// StoreRef is the whole sequence. PreWrite is step 1 alone, for
// publishers that install their values by CAS and never store volatile
// references (pindex's link-and-persist). The heap cannot tell volatile
// from persistent itself, so callers pass the classification in and core
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
// persistent object at obj, with the full barrier around it. volatile
// says whether val points into the volatile heap. On the owner's
// allocator everything lands in state only the owner writes; on the
// heap's ownerless context (Heap.Ownerless) the same code runs over the
// shared counters and the one shared buffer pair. A persistent val is
// settled first (Settle): the slot may be durable before the store
// returns, and must not name a header that is not.
func (a *Allocator) StoreRef(obj layout.Ref, boff int, val layout.Ref, volatile bool) {
	if !volatile {
		a.Settle(val)
	}
	var armed uint64
	if a.heap.satbActive.Load() {
		a.preWrite(obj, a.GetWordAtomic(obj, boff))
		armed = 1
	}
	a.storeRef(obj, boff, val, volatile, armed)
}

// PreWrite is the pre-write half of the barrier alone, for a slot of obj
// whose previous raw value was old and that the caller overwrites by
// other means (a CAS). A no-op costing one atomic load while no
// concurrent mark runs.
func (a *Allocator) PreWrite(obj layout.Ref, old uint64) {
	if a.heap.satbActive.Load() {
		a.preWrite(obj, old)
	}
}

// preWrite records the untagged old referent if the snapshot needs it and
// dirties obj's card. old may carry low tag bits (layout.RefTagMask) that
// are not part of the address.
func (a *Allocator) preWrite(obj layout.Ref, old uint64) {
	h := a.heap
	if ref := layout.UntagRef(layout.Ref(old)); h.satbRecordNeeded(ref) {
		a.bufMu.Lock()
		a.satb = append(a.satb, ref)
		a.bufMu.Unlock()
	}
	if c := (h.OffOf(obj) - h.geo.DataOff) / SATBCardBytes; c >= 0 && c < len(h.satbDirty) {
		h.satbDirty[c].Store(true)
	}
}

// storeRef is steps 2 and 3 plus attribution: refstore.stores, armed (0
// or 1) refstore.satb_records, and the barrier's own device ops — the
// store, and armed pre-write loads.
func (a *Allocator) storeRef(obj layout.Ref, boff int, val layout.Ref, volatile bool, armed uint64) {
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
	if c := a.cell; c != nil {
		c.Inc(telemetry.CtrRefStores)
		c.Add(telemetry.CtrSATBRecords, armed)
		if !a.placing { // inside an allocation the device ops are the allocation's
			c.Dev(nvm.SubRefstore, armed, 1, 0, 0)
		}
	} else if sc := h.tel.Shared(); sc != nil {
		// No cell of its own: the ownerless context, counted in the
		// registry's shared cell so the op mix stays complete.
		sc.AtomicInc(telemetry.CtrRefStores)
		sc.AtomicAdd(telemetry.CtrSATBRecords, armed)
		sc.AtomicDev(nvm.SubRefstore, armed, 1, 0, 0)
	}
}

// takeBuffers moves both buffers out, leaving them empty.
func (a *Allocator) takeBuffers() (satb []layout.Ref, deltas []RemsetDelta) {
	a.bufMu.Lock()
	satb, deltas = a.satb, a.deltas
	a.satb, a.deltas = nil, nil
	a.bufMu.Unlock()
	return satb, deltas
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
// complete before either collector consults it — and the runtime calls
// it before volatile collections and remembered-set snapshots, which run
// inside a safepoint interval beside running mutators.
func (h *Heap) PublishRemsetDeltas() {
	for _, a := range h.contexts() {
		a.PublishRemsetDeltas()
	}
}

// DrainBarrierShard empties the barrier buffers of the contexts whose
// registry index ≡ worker (mod workers): pre-write records go to visit,
// deltas to the sink. It reports how many records it delivered. A
// parallel marking pool drains all contexts concurrently this way without
// two workers contending on one; a context registered after the snapshot
// is picked up by whichever worker owns its index on a later round, and
// with the world stopped (the final remark) the shards cover every
// context exactly. (0, 1) is the full drain.
func (h *Heap) DrainBarrierShard(worker, workers int, visit func(layout.Ref)) int {
	ctxs := h.contexts()
	n := 0
	for i := worker; i < len(ctxs); i += workers {
		satb, deltas := ctxs[i].takeBuffers()
		for _, ref := range satb {
			visit(ref)
		}
		n += len(satb)
		h.publishDeltas(deltas)
	}
	return n
}

// BeginConcurrentMark publishes the snapshot tops, resets the dirty
// cards, and arms the pre-write barrier. Must run with the world stopped
// (the initial handshake), so mutators observe a consistent (armed,
// snapshot) pair on every store.
func (h *Heap) BeginConcurrentMark(snapTops []int) {
	h.satbSnap = append([]int(nil), snapTops...)
	if cards := h.geo.DataSize / SATBCardBytes; len(h.satbDirty) != cards {
		h.satbDirty = make([]atomic.Bool, cards)
	} else {
		for i := range h.satbDirty {
			h.satbDirty[i].Store(false)
		}
	}
	h.satbActive.Store(true)
}

// EndConcurrentMark disarms the barrier. Must run with the world stopped
// (the final pause), so no store can be mid-barrier.
func (h *Heap) EndConcurrentMark() {
	h.satbActive.Store(false)
}

// satbRecordNeeded reports whether an overwritten referent must be
// recorded: old points into this heap and the object lies below its
// region's snapshot top (objects above it were allocated after the
// snapshot and are allocate-black). Callers have seen the barrier armed.
func (h *Heap) satbRecordNeeded(old layout.Ref) bool {
	if old == layout.NullRef || !h.Contains(old) {
		return false
	}
	off := h.OffOf(old)
	r := (off - h.geo.DataOff) / layout.RegionSize
	if r < 0 || r >= len(h.satbSnap) {
		return false
	}
	top := h.satbSnap[r]
	return IsRealTop(top) && off < top
}

// SATBCardBytes is the granularity of the dirty-card table and of the
// marker's outgoing-reference summary: fine enough that a region shared
// between a stable graph and an active allocation area does not drag the
// whole stable part back into the pause-time rescan, coarse enough that
// the tables stay a few words per megabyte.
const SATBCardBytes = 16 << 10

// SATBDirtyCards snapshots the dirty cards (final pause, world stopped):
// cards whose objects received reference stores during the concurrent
// mark and whose outgoing-reference summary is therefore stale.
func (h *Heap) SATBDirtyCards() []bool {
	dirty := make([]bool, len(h.satbDirty))
	for i := range h.satbDirty {
		dirty[i] = h.satbDirty[i].Load()
	}
	return dirty
}
