package core

import "espresso/internal/layout"

// Handles are the runtime's pinned root slots — the JNI-handle analog.
// Application code running outside the simulated heaps (Go code) holds a
// Handle rather than a raw Ref so collections can move the object and
// patch the slot.

// Handle names a root slot in the runtime's handle table. Handle
// operations run under the safepoint read lock plus the runtime lock:
// persistent collections patch the table inside their pauses, so a Get
// never races a compaction and always observes the patched referent,
// and rt.mu orders readers against a concurrent NewHandle growing the
// slice.
type Handle struct{ idx int }

// NewHandle registers ref as a GC root and returns its handle.
func (rt *Runtime) NewHandle(ref layout.Ref) Handle {
	defer rt.world.RUnlock(rt.world.RLock())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n := len(rt.freeHandles); n > 0 {
		idx := rt.freeHandles[n-1]
		rt.freeHandles = rt.freeHandles[:n-1]
		rt.handles[idx] = ref
		return Handle{idx}
	}
	rt.handles = append(rt.handles, ref)
	return Handle{len(rt.handles) - 1}
}

// Get returns the handle's current referent (collections may have moved
// it since the handle was created). rt.mu additionally excludes a
// concurrent NewHandle's slice growth — the safepoint read lock is
// shared among mutators, so it alone cannot order a reader against the
// appender.
func (rt *Runtime) Get(h Handle) layout.Ref {
	defer rt.world.RUnlock(rt.world.RLock())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.handles[h.idx]
}

// Release drops the handle, letting its referent die.
func (rt *Runtime) Release(h Handle) {
	defer rt.world.RUnlock(rt.world.RLock())
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.handles[h.idx] = layout.NullRef
	rt.freeHandles = append(rt.freeHandles, h.idx)
}
