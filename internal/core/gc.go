package core

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/telemetry/blackbox"
)

// Stop-the-world GC orchestration. The runtime supplies each collector
// with the cross-space roots it cannot see on its own:
//
//   - volatile collections treat runtime handles and the NVM→DRAM
//     remembered set as roots (a persistent object may be the only thing
//     keeping a DRAM object alive), and patch those slots when objects
//     move;
//   - persistent collections treat runtime handles plus every DRAM slot
//     referencing the heap as roots (paper: root objects are only *known
//     entry points after reboot* — while the process lives, DRAM
//     references also keep persistent objects alive), and patch them
//     after compaction.

// volRoots adapts handles + the NVM remembered set to vheap.RootSet.
type volRoots struct{ rt *Runtime }

// UpdateSlots feeds every handle and every remembered NVM slot that
// still holds a volatile reference through fn, and deletes a remembered
// slot that no longer does (remset.go). NVM slots are read and patched
// with atomic word accesses: a volatile collection runs under the
// safepoint read lock, beside mutators and lock-free index readers that
// may load the same slots. The handle patch takes rt.mu so it cannot
// race a concurrent NewHandle growing the table.
func (r volRoots) UpdateSlots(fn func(layout.Ref) layout.Ref) {
	rt := r.rt
	rt.mu.Lock()
	for i, v := range rt.handles {
		if v != layout.NullRef {
			rt.handles[i] = fn(v)
		}
	}
	rt.mu.Unlock()
	rs := rt.nvmToVol
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for slot := range rs.m {
		h := rt.heapOf(slot)
		if h == nil {
			continue
		}
		boff := int(slot) - int(h.Base())
		v := layout.Ref(h.Device().ReadU64Atomic(boff))
		if !rt.isVolatile(v) {
			delete(rs.m, slot) // overwritten since it was remembered
			continue
		}
		if nv := fn(v); nv != v {
			h.Device().WriteU64Atomic(boff, uint64(nv))
			if !rt.isVolatile(nv) {
				delete(rs.m, slot)
			}
		}
	}
}

// MinorGC runs a young-generation scavenge. Volatile collections (and
// the volatile heap generally, as in the seed) assume a single volatile
// mutator: the safepoint read lock only orders them against persistent
// GC pauses, not against other goroutines touching DRAM objects.
func (rt *Runtime) MinorGC() error {
	defer rt.world.RUnlock(rt.world.RLock())
	return rt.minorGC()
}

func (rt *Runtime) minorGC() error {
	return rt.vol.MinorGC(volRoots{rt})
}

// FullGC collects the whole volatile heap; see MinorGC for the
// single-volatile-mutator contract.
func (rt *Runtime) FullGC() error {
	defer rt.world.RUnlock(rt.world.RLock())
	return rt.fullGC()
}

func (rt *Runtime) fullGC() error {
	return rt.vol.FullGC(volRoots{rt})
}

// persRoots adapts handles + a scan of the volatile heap to pgc.Rooter.
type persRoots struct {
	rt *Runtime
	h  *pheap.Heap
}

// Roots visits every DRAM reference into the persistent heap: handles and
// fields/elements of volatile objects.
func (r persRoots) Roots(visit func(layout.Ref)) {
	for _, v := range r.rt.handles {
		visit(v)
	}
	err := r.rt.vol.ForEachObject(func(ref layout.Ref, k *klass.Klass, size int) bool {
		r.rt.vol.RefSlotsOf(ref, k, func(_, val layout.Ref) {
			if val != layout.NullRef && r.h.Contains(val) {
				visit(val)
			}
		})
		return true
	})
	if err != nil {
		panic(fmt.Sprintf("core: volatile heap scan during persistent GC: %v", err))
	}
}

// UpdateRoots patches every such slot through the forwarding function,
// then rebuilds the NVM→DRAM remembered set (remembered slots moved with
// their objects). The collector calls it inside the pause, so no mutator
// ever observes unpatched roots or a stale remembered set.
func (r persRoots) UpdateRoots(fwd func(layout.Ref) layout.Ref) {
	rt := r.rt
	for i, v := range rt.handles {
		if v != layout.NullRef && r.h.Contains(v) {
			rt.handles[i] = fwd(v)
		}
	}
	err := rt.vol.ForEachObject(func(ref layout.Ref, k *klass.Klass, size int) bool {
		rt.vol.RefSlotsOf(ref, k, func(slotAddr, val layout.Ref) {
			if val != layout.NullRef && r.h.Contains(val) {
				if nv := fwd(val); nv != val {
					boff := int(slotAddr - ref)
					rt.vol.SetWord(ref, boff, uint64(nv))
				}
			}
		})
		return true
	})
	if err != nil {
		panic(fmt.Sprintf("core: volatile heap patch during persistent GC: %v", err))
	}
	rt.rebuildNVMRemset(r.h)
}

// worldLocker stops the world on the runtime's safepoint for a
// collection of h: stopping the world means waiting out every in-flight mutator operation and
// holding new ones at the safepoint — the mutator handshake. Each stop is
// timed into the telemetry safepoint.wait histogram, so handshake delays
// caused by long mutator ops are observable, and journaled as an
// EvSafepoint aggregate when h carries a flight recorder (the append
// rides the pause's first persist fence).
type worldLocker struct {
	rt *Runtime
	h  *pheap.Heap
}

func (w worldLocker) StopWorld() {
	wait := w.rt.lockWorldCounted()
	w.h.FlightRecorder().Append(blackbox.EvSafepoint,
		w.rt.spWaits.Load(), w.rt.spWaitNS.Load(), uint64(wait))
}
func (w worldLocker) StartWorld() { w.rt.world.Start() }

// PersistentGC runs the crash-consistent collection of paper §4 on the
// named heap (System.gc() for the persistent space). Mutators on other
// goroutines are paused through the safepoint lock for the whole
// collection, which marks on GOMAXPROCS workers and compacts on one. The
// remembered set is pruned first, with the world stopped and outside the
// collection's device window, for rebuildNVMRemset.
func (rt *Runtime) PersistentGC(name string) (pgc.Result, error) {
	h, ok := rt.Heap(name)
	if !ok {
		return pgc.Result{}, fmt.Errorf("core: heap %q is not loaded", name)
	}
	rt.gcMu.Lock()
	defer rt.gcMu.Unlock()
	w := worldLocker{rt, h}
	w.StopWorld()
	defer w.StartWorld()
	rt.pruneNVMRemset()
	return pgc.Collect(h, persRoots{rt, h})
}

// rebuildNVMRemset rescans one heap's live objects for volatile
// references. Called after compaction invalidates slot addresses. The
// remembered set is exact here — every NVM→DRAM store passes the write
// barrier, and PersistentGC pruned the set with the world stopped — so
// an empty set means no persistent slot anywhere holds a volatile
// reference and the whole-heap rescan (a pause-time cost proportional to
// everything live) is skipped.
func (rt *Runtime) rebuildNVMRemset(h *pheap.Heap) {
	rs := rt.nvmToVol
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.m) == 0 {
		return
	}
	for slot := range rs.m {
		if h.ContainsImage(slot) {
			delete(rs.m, slot)
		}
	}
	_ = h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if pheap.IsFiller(k) {
			return true
		}
		pheap.RefSlots(h.Device(), off, k, func(slotBoff int) {
			v := layout.Ref(h.Device().ReadU64(off + slotBoff))
			if v != layout.NullRef && rt.vol.Contains(v) {
				rs.m[h.AddrOf(off+slotBoff)] = struct{}{}
			}
		})
		return true
	})
}
