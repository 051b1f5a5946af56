package core

import (
	"math/bits"
	"sync"

	"espresso/internal/layout"
	"espresso/internal/pheap"
)

// The persistent-to-volatile remembered set and its write-combining
// barrier lifecycle.
//
// The shared set (remset below) holds the absolute addresses of NVM slots
// currently believed to hold DRAM references. It is consulted by the
// volatile collectors (those slots are scavenge roots and get patched
// when DRAM objects move), rebuilt by the persistent collector after
// compaction, and policed by the safety levels. No mutator path touches
// it: it is a fold target only, one mutex and one map, taken once per
// published batch.
//
// The lifecycle of one reference store is instead:
//
//	store        core.storeRef classifies the new value (volatile or
//	             not) and pheap's reference-store barrier appends a
//	             RemsetDelta{slot, add} to the storing context's buffer
//	             (the mutator's pheap.Allocator; stores outside a
//	             Mutator use the heap's ownerless context), under the
//	             same mutex hold as the device store.
//
//	delta        The record sits in the context's buffer — invisible to
//	             the shared set, touching no shared cache line.
//
//	publication  Deltas merge into the shared set at exactly three
//	             points:
//	               1. transaction commit — ptx.Tx.Commit publishes the
//	                  ownerless context its stores went through (Abort
//	                  sends the rolled-back slots through the barrier
//	                  again and publishes those, so the set returns to
//	                  its pre-tx contents);
//	               2. safepoint entry — pheap.PrepareForCollection drains
//	                  every context with the world stopped, so both
//	                  persistent collectors see a complete set before
//	                  marking/compaction, and the runtime drains before
//	                  every volatile collection for the same reason;
//	               3. buffer overflow — the owner publishes its own
//	                  deltas past RemsetDeltaOverflow records, amortized.
//
// A delta is a hint, not an instruction: membership is RE-DERIVED from
// the slot's current device value when the delta is applied (see
// applyRemsetDeltas). Within one context deltas arrive in program order,
// but one slot can be stored through two contexts (a Runtime-routed store
// and a Mutator-routed one, or a ptx transaction), and contexts drain in
// registration order — trusting the hints alone could let an early
// remove erase a later add and drop a live scavenge root. Re-derivation
// makes publication order-independent and idempotent: after any full
// drain the set equals exactly {slots whose current value is volatile}
// among slots that ever saw a delta. The hints still pay their way by
// gating the device read — a remove hint for a slot the set does not
// contain is dropped without touching the device, so workloads that
// never store a volatile reference (the common case) publish with zero
// device traffic, matching the eager path's cost.
//
// Between publications the shared set can be stale for slots with
// pending deltas; every consumer therefore publishes first (see
// remsetSink and the publishRemsetDeltas calls in gc.go).

// remset is the shared set: one lock, taken once per batch whatever the
// batch is — published deltas, a volatile collection's patch, a
// persistent collection's rebuild.
type remset struct {
	mu sync.Mutex
	m  map[layout.Ref]struct{}
}

func newRemset() *remset { return &remset{m: make(map[layout.Ref]struct{})} }

// Snapshot returns every recorded slot (order unspecified).
func (r *remset) Snapshot() []layout.Ref {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]layout.Ref, 0, len(r.m))
	for slot := range r.m {
		out = append(out, slot)
	}
	return out
}

// remsetSink adapts the runtime's remembered set to pheap.RemsetSink —
// the hook heap-level publication points (safepoint drains, transaction
// commits, buffer overflows) deliver deltas through. Installed on every
// heap at attach time.
type remsetSink struct{ rt *Runtime }

func (s remsetSink) PublishRemsetDeltas(ds []pheap.RemsetDelta) { s.rt.applyRemsetDeltas(ds) }

func (s remsetSink) RefIsVolatile(ref layout.Ref) bool { return s.rt.vol.Contains(ref) }

// applyRemsetDeltas merges one published batch. Membership is re-derived
// from the slot's current device value, which makes application
// order-independent across contexts (see the package comment): an add
// hint always re-reads; a remove hint re-reads only when the slot is
// actually in the set (an absent remove is a guaranteed no-op, so the
// pure NVM→NVM workload publishes without device traffic). The batch is
// deduplicated by slot first — only its final record matters, and one
// read per slot bounds the publication's device cost by the working set,
// not the store count. Safe to run concurrently with mutators (overflow
// publications race collector drains): the slot load is a single atomic
// device read.
func (rt *Runtime) applyRemsetDeltas(ds []pheap.RemsetDelta) {
	if len(ds) == 0 {
		return
	}
	// Deduplicate newest-first, in place (the batch is lent to the sink)
	// and before the lock is taken: what is left to do under it is one
	// lookup per distinct slot. The slots already decided go in an
	// open-addressing set at most half full (a slot is never 0), on the
	// stack for any batch an owner's overflow publishes, so the dedup
	// allocates nothing. On a 2-vCPU Xeon VM it costs ~3 ns a record,
	// where a map cost ~50 and a stable sort by slot ~190 (512 records,
	// half of them to 100 slots).
	var buf [2 * pheap.RemsetDeltaOverflow]layout.Ref // a power of two
	seen := buf[:]
	if len(ds) > pheap.RemsetDeltaOverflow {
		seen = make([]layout.Ref, 2<<bits.Len(uint(len(ds))))
	}
	mask := uint64(len(seen) - 1)
	j := len(ds)
	for i := len(ds) - 1; i >= 0; i-- {
		slot := ds[i].Slot
		h := layout.MixHash64(int64(slot)) & mask
		for seen[h] != 0 && seen[h] != slot {
			h = (h + 1) & mask
		}
		if seen[h] == slot {
			continue
		}
		seen[h] = slot
		j--
		ds[j] = ds[i]
	}
	rs := rt.nvmToVol
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, d := range ds[j:] {
		if _, in := rs.m[d.Slot]; !d.Add && !in {
			continue
		}
		if rt.slotHoldsVolatile(d.Slot) {
			rs.m[d.Slot] = struct{}{}
		} else {
			delete(rs.m, d.Slot)
		}
	}
}

// slotHoldsVolatile re-reads an NVM slot and reports whether its current
// value points into the volatile heap. Tag bits (layout.RefTagMask) are
// stripped, as everywhere slot values are interpreted as addresses.
func (rt *Runtime) slotHoldsVolatile(slot layout.Ref) bool {
	h := rt.heapOf(slot)
	if h == nil {
		return false
	}
	boff := int(slot) - int(h.Base())
	v := layout.UntagRef(layout.Ref(h.Device().ReadU64Atomic(boff)))
	return v != layout.NullRef && rt.vol.Contains(v)
}
