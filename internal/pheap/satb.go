package pheap

import (
	"sync"
	"sync/atomic"

	"espresso/internal/layout"
)

// Snapshot-at-the-beginning (SATB) infrastructure for the concurrent
// persistent collector. The marker in pgc/concurrent traces the object
// graph below a snapshot of the region-top table while mutators keep
// running; the SATB invariant — every object reachable at the snapshot
// stays reachable *to the marker* — is maintained by a pre-write barrier:
// before a mutator overwrites a reference slot, the old referent is
// recorded in the mutator's SATB buffer, and the marker drains those
// buffers as extra gray roots. Objects allocated after the snapshot sit
// above the snapshotted tops and are implicitly live (allocate-black), so
// the barrier ignores them.
//
// The heap owns the buffer registry so the collector can drain buffers
// created by any mutator, plus a shared default buffer for reference
// stores made outside any mutator context. Activation and deactivation
// happen with the world stopped, so mutators observe a consistent
// (active, snapshot) pair on every store.

// SATBBuffer collects the pre-write barrier's old-referent records for
// one mutator. The owning mutator appends; the marker drains. A small
// mutex serializes the two — appends are uncontended except at the
// moment of a drain, and the barrier only records during a concurrent
// mark, so the quiescent cost is one atomic load on the heap.
type SATBBuffer struct {
	mu   sync.Mutex
	refs []layout.Ref
}

// Record appends one overwritten referent.
func (b *SATBBuffer) Record(ref layout.Ref) {
	b.mu.Lock()
	b.refs = append(b.refs, ref)
	b.mu.Unlock()
}

// drain moves the buffered refs out, leaving the buffer empty.
func (b *SATBBuffer) drain() []layout.Ref {
	b.mu.Lock()
	refs := b.refs
	b.refs = nil
	b.mu.Unlock()
	return refs
}

// NewSATBBuffer registers a fresh per-mutator SATB buffer with the heap.
func (h *Heap) NewSATBBuffer() *SATBBuffer {
	b := &SATBBuffer{}
	h.satbMu.Lock()
	h.satbBuffers = append(h.satbBuffers, b)
	h.satbMu.Unlock()
	return b
}

// ReleaseSATBBuffer unregisters b. Records still buffered are handed to
// the shared default buffer so a mutator retiring mid-mark cannot lose
// barrier entries.
func (h *Heap) ReleaseSATBBuffer(b *SATBBuffer) {
	if b == nil {
		return
	}
	left := b.drain()
	h.satbMu.Lock()
	for i, other := range h.satbBuffers {
		if other == b {
			h.satbBuffers = append(h.satbBuffers[:i], h.satbBuffers[i+1:]...)
			break
		}
	}
	if len(left) > 0 {
		def := h.defaultSATBLocked()
		h.satbMu.Unlock()
		for _, r := range left {
			def.Record(r)
		}
		return
	}
	h.satbMu.Unlock()
}

// DefaultSATBBuffer returns the heap's shared fallback buffer, used by
// reference stores that run outside any mutator context.
func (h *Heap) DefaultSATBBuffer() *SATBBuffer {
	h.satbMu.Lock()
	b := h.defaultSATBLocked()
	h.satbMu.Unlock()
	return b
}

func (h *Heap) defaultSATBLocked() *SATBBuffer {
	if h.satbDefault == nil {
		h.satbDefault = &SATBBuffer{}
		h.satbBuffers = append(h.satbBuffers, h.satbDefault)
	}
	return h.satbDefault
}

// BeginConcurrentMark publishes the snapshot tops, resets the dirty
// region cards, and arms the pre-write barrier. Must run with the world
// stopped (the initial handshake).
func (h *Heap) BeginConcurrentMark(snapTops []int) {
	h.satbMu.Lock()
	h.satbSnap = append([]int(nil), snapTops...)
	if cards := h.geo.DataSize / SATBCardBytes; len(h.satbDirty) != cards {
		h.satbDirty = make([]atomic.Bool, cards)
	} else {
		for i := range h.satbDirty {
			h.satbDirty[i].Store(false)
		}
	}
	h.satbMu.Unlock()
	h.satbActive.Store(true)
}

// EndConcurrentMark disarms the barrier. Must run with the world stopped
// (the final pause), so no store can be mid-barrier.
func (h *Heap) EndConcurrentMark() {
	h.satbActive.Store(false)
}

// ConcurrentMarkActive reports whether the SATB barrier is armed — the
// one-atomic-load check on every reference store.
func (h *Heap) ConcurrentMarkActive() bool { return h.satbActive.Load() }

// SATBRecordNeeded reports whether an overwritten referent must be
// recorded: the barrier is armed, old points into this heap, and the
// object lies below its region's snapshot top (objects above it were
// allocated after the snapshot and are allocate-black).
func (h *Heap) SATBRecordNeeded(old layout.Ref) bool {
	if old == layout.NullRef || !h.satbActive.Load() || !h.Contains(old) {
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

// SATBMarkDirtyCard records that a reference slot of the object at obj
// was stored to while the concurrent mark ran — the card mark that
// invalidates the marker's outgoing-reference summary for the pause-time
// fix-skip (see pgc's compact). Called by the write barrier on every
// heap reference store while marking is active.
func (h *Heap) SATBMarkDirtyCard(obj layout.Ref) {
	c := (h.OffOf(obj) - h.geo.DataOff) / SATBCardBytes
	if c >= 0 && c < len(h.satbDirty) {
		h.satbDirty[c].Store(true)
	}
}

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

// DrainSATB empties every registered buffer through visit and reports how
// many records it delivered. The marker calls it repeatedly during the
// concurrent phase and once more at the final remark.
func (h *Heap) DrainSATB(visit func(layout.Ref)) int {
	h.satbMu.Lock()
	buffers := append([]*SATBBuffer(nil), h.satbBuffers...)
	h.satbMu.Unlock()
	n := 0
	for _, b := range buffers {
		for _, ref := range b.drain() {
			visit(ref)
			n++
		}
	}
	return n
}

// DrainSATBShard is DrainSATB restricted to the buffers whose registry
// index ≡ worker (mod workers), so a parallel marking pool can drain all
// buffers concurrently without two workers contending on one buffer:
// shards partition the registry, and each buffer's own mutex orders the
// drain against its mutator's appends. A buffer registered after the
// snapshot is picked up by whichever worker owns its index on the next
// round — and the final remark's serial full drain catches any
// leftover records regardless.
func (h *Heap) DrainSATBShard(worker, workers int, visit func(layout.Ref)) int {
	h.satbMu.Lock()
	buffers := append([]*SATBBuffer(nil), h.satbBuffers...)
	h.satbMu.Unlock()
	n := 0
	for i := worker; i < len(buffers); i += workers {
		for _, ref := range buffers[i].drain() {
			visit(ref)
			n++
		}
	}
	return n
}

// SATBRecordBarrier runs the pre-write barrier for one overwritten
// reference slot of the object at obj: the untagged old referent is
// recorded (if the snapshot needs it) and the object's card dirtied.
// raw is the slot's previous value, which may carry low tag bits
// (layout.RefTagMask) that are not part of the address; buf nil selects
// the heap's shared default buffer. Callers gate on
// ConcurrentMarkActive, exactly like core.storeRef.
func (h *Heap) SATBRecordBarrier(obj layout.Ref, raw uint64, buf *SATBBuffer) {
	if old := layout.UntagRef(layout.Ref(raw)); h.SATBRecordNeeded(old) {
		if buf == nil {
			buf = h.DefaultSATBBuffer()
		}
		buf.Record(old)
	}
	h.SATBMarkDirtyCard(obj)
}
