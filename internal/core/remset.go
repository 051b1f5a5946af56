package core

import (
	"sync"

	"espresso/internal/layout"
)

// The persistent-to-volatile remembered set.
//
// The set (remset below) holds the absolute addresses of NVM slots that
// may hold DRAM references: the volatile collectors treat those slots as
// scavenge roots and patch them when DRAM objects move, and the
// persistent collector rebuilds them after compaction. It keeps vheap's
// old→young idiom: a slot is added when the store happens, and
// membership is re-derived from the slot's current value when a
// collection reads the set.
//
//	add    pheap's reference-store barrier stores a volatile reference,
//	       then calls the sink's Remember with the slot (remsetSink). A
//	       store of any other value does nothing, so the set may keep a
//	       slot that has been overwritten since: it is a superset of the
//	       slots that hold a volatile reference.
//
//	read   every reader checks each slot's current value:
//	         - a volatile collection (volRoots.UpdateSlots) deletes a slot
//	           that no longer holds a volatile reference and patches the
//	           rest;
//	         - PersistentGC prunes the set with the world stopped, before
//	           pgc.Collect, so rebuildNVMRemset sees it exact and skips its
//	           whole-heap rescan when no slot holds a volatile reference;
//	         - NVMToVolSlots filters by current value and never prunes.
//
// Why no add is lost. An add comes after its store, and both happen
// inside one safepoint interval, so a stopped world has no slot that
// holds a volatile reference and is not yet in the set. A prune reads
// and deletes under the set's lock, and runs only with the world stopped
// (PersistentGC) or under vheap's single-volatile-mutator contract (a
// volatile collection: no other goroutine stores a volatile reference
// while it runs). A prune running beside mutators could drop a slot that
// another mutator is adding again: it reads the slot before that
// mutator's store lands and deletes it after, and the slot survives only
// if that mutator's Remember re-adds it behind the prune — true of a
// Remember that always takes the lock, but not a guarantee the set
// rests on. NVMToVolSlots runs beside mutators, so it only filters.

// remset is the set behind one lock, taken once per add and once per
// whole pass of a reader.
type remset struct {
	mu sync.Mutex
	m  map[layout.Ref]struct{}
}

func newRemset() *remset { return &remset{m: make(map[layout.Ref]struct{})} }

// remsetSink adapts the runtime's remembered set to pheap.RemsetSink,
// the hook the reference-store barrier adds slots through. Installed on
// every heap at attach time.
type remsetSink struct{ rt *Runtime }

func (s remsetSink) Remember(slot layout.Ref) {
	rs := s.rt.nvmToVol
	rs.mu.Lock()
	rs.m[slot] = struct{}{}
	rs.mu.Unlock()
}

func (s remsetSink) RefIsVolatile(ref layout.Ref) bool { return s.rt.vol.Contains(ref) }

// NVMToVolSlots returns the remembered slots that hold a volatile
// reference now (diagnostics and tests; order unspecified): one device
// read per remembered slot. It runs beside mutators, so it filters and
// leaves the set as it is.
func (rt *Runtime) NVMToVolSlots() []layout.Ref {
	defer rt.world.RUnlock(rt.world.RLock())
	rs := rt.nvmToVol
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]layout.Ref, 0, len(rs.m))
	for slot := range rs.m {
		if rt.slotHoldsVolatile(slot) {
			out = append(out, slot)
		}
	}
	return out
}

// pruneNVMRemset deletes every slot that no longer holds a volatile
// reference, leaving the set exact. The world must be stopped.
func (rt *Runtime) pruneNVMRemset() {
	rs := rt.nvmToVol
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for slot := range rs.m {
		if !rt.slotHoldsVolatile(slot) {
			delete(rs.m, slot)
		}
	}
}

// slotHoldsVolatile re-reads an NVM slot and reports whether its current
// value points into the volatile heap.
func (rt *Runtime) slotHoldsVolatile(slot layout.Ref) bool {
	h := rt.heapOf(slot)
	if h == nil {
		return false
	}
	return rt.isVolatile(layout.Ref(h.Device().ReadU64Atomic(int(slot - h.Base()))))
}

// isVolatile reports whether a slot value points into the volatile heap.
// Tag bits (layout.RefTagMask) are stripped, as everywhere slot values
// are interpreted as addresses.
func (rt *Runtime) isVolatile(v layout.Ref) bool {
	v = layout.UntagRef(v)
	return v != layout.NullRef && rt.vol.Contains(v)
}
