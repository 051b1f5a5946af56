package core

import (
	"fmt"

	"espresso/internal/layout"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
	"espresso/internal/telemetry/blackbox"
)

// The five heap-management APIs of paper Table 1, plus Sync/Close
// housekeeping. createHeap/loadHeap register the heap in the runtime's
// address map and make it the active target of pnew.

// CreateHeap creates a persistent heap of the given data size (0 selects
// the configured default) and makes it active (Table 1: createHeap).
func (rt *Runtime) CreateHeap(name string, size int) (*pheap.Heap, error) {
	if rt.mgr.Exists(name) {
		return nil, fmt.Errorf("core: heap %q already exists", name)
	}
	if size == 0 {
		size = rt.cfg.PJHDataSize
	}
	h, err := pheap.Create(rt.Reg, pheap.Config{
		Name:        name,
		AddressHint: rt.reserveBase(),
		DataSize:    size,
		Mode:        rt.cfg.NVMMode,
	})
	if err != nil {
		return nil, err
	}
	if err := rt.mgr.Register(name, h.Device()); err != nil {
		return nil, err
	}
	if rt.cfg.FlightRecorder {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return nil, fmt.Errorf("core: flight recorder on %q: %w", name, err)
		}
		h.FlightRecorder().Append(blackbox.EvHeapCreate,
			uint64(h.Geo().DataSize), uint64(h.Geo().DataRegions()), h.FormatVersion())
	}
	// The heap's allocators report into the runtime's telemetry registry
	// (nil when disabled — pheap records nothing then).
	h.SetTelemetry(rt.tel)
	rt.attach(h)
	return h, nil
}

// reserveBase hands out address hints for new heaps, skipping windows
// already occupied by loaded heaps (which sit at their own hints).
func (rt *Runtime) reserveBase() layout.Ref {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	const window = layout.Ref(1 << 36)
	for {
		base := rt.nextBase
		rt.nextBase += window
		occupied := false
		for _, h := range rt.heaps {
			if base < h.Limit() && h.Base() < base+window {
				occupied = true
				break
			}
		}
		if !occupied {
			return base
		}
	}
}

// LoadHeap loads a pre-existing heap image into this runtime (Table 1:
// loadHeap): map the image at its address hint, re-initialize the Klass
// records in place, finish any interrupted collection, and apply the
// configured safety level. The loaded heap becomes the active pnew target.
func (rt *Runtime) LoadHeap(name string) (*pheap.Heap, error) {
	if h, ok := rt.heapByName[name]; ok {
		rt.active = h
		return h, nil // already mapped in this runtime
	}
	dev, err := rt.mgr.Device(name)
	if err != nil {
		return nil, err
	}
	h, err := pheap.Load(dev, rt.Reg)
	if err != nil {
		return nil, err
	}
	h.SetName(name)
	// The address hint may clash with a heap already mapped here — the
	// paper's remap case. Rebase rewrites every intra-heap pointer.
	if clash := rt.overlaps(h); clash != nil {
		if err := h.Rebase(rt.reserveBase()); err != nil {
			return nil, fmt.Errorf("core: remapping %q away from %q: %w", name, clash.Name(), err)
		}
	}
	// The telemetry registry and the flight recorder attach before
	// recovery runs, so the recovery itself — its span, its gc.recoveries
	// count, its attributed device traffic — lands in the runtime's metrics
	// and the recovery narrative in the journal: seeing what happened
	// around the crash is the whole point of both.
	h.SetTelemetry(rt.tel)
	if rt.cfg.FlightRecorder {
		if _, err := h.EnableFlightRecorder(); err != nil {
			return nil, fmt.Errorf("core: flight recorder on %q: %w", name, err)
		}
		active := uint64(0)
		if h.GCActive() {
			active = 1
		}
		h.FlightRecorder().Append(blackbox.EvHeapLoad, h.GlobalTS(), active, 0)
	}
	// Crash recovery (paper §4.3) runs before the heap is used.
	if _, _, err := pgc.RecoverIfNeeded(h); err != nil {
		return nil, fmt.Errorf("core: recovering %q: %w", name, err)
	}
	if rt.cfg.Safety == Zeroing {
		if _, err := h.ZeroingScan(func(ref layout.Ref) bool {
			if h.Contains(ref) {
				return true
			}
			other := rt.heapOf(ref)
			return other != nil && other.Contains(ref)
		}); err != nil {
			return nil, fmt.Errorf("core: zeroing scan of %q: %w", name, err)
		}
	}
	rt.attach(h)
	return h, nil
}

// ExistsHeap checks whether a heap image exists (Table 1: existsHeap).
func (rt *Runtime) ExistsHeap(name string) bool { return rt.mgr.Exists(name) }

// SetRoot marks an object as a named root in the heap that contains it
// (Table 1: setRoot).
func (a *Accessor) SetRoot(name string, ref layout.Ref) error {
	defer a.exit(a.enter())
	x := a.ctxOf(ref)
	if x == nil {
		return fmt.Errorf("core: setRoot %q: %#x is not a persistent object", name, uint64(ref))
	}
	return x.Heap().SetRoot(name, ref)
}

// GetRoot fetches a root object by name, searching every loaded heap
// (Table 1: getRoot). The result is an untyped object reference; the
// caller casts, as in the paper. The lookup counts where ctxOf would: in
// a mutator's own view for its heap, in the heap's shared counters
// otherwise.
func (a *Accessor) GetRoot(name string) (layout.Ref, bool) {
	defer a.exit(a.enter())
	for _, h := range a.rt.heaps {
		x := h.Access
		if h == a.h {
			x = a.alloc.Access
		}
		if ref, ok := x.GetRoot(name); ok {
			return ref, true
		}
	}
	return 0, false
}

// ActiveHeap returns the current pnew target.
func (rt *Runtime) ActiveHeap() *pheap.Heap { return rt.active }

// SetActiveHeap selects which loaded heap pnew allocates into.
func (rt *Runtime) SetActiveHeap(name string) error {
	h, ok := rt.heapByName[name]
	if !ok {
		return fmt.Errorf("core: heap %q is not loaded", name)
	}
	rt.active = h
	return nil
}

// Heaps lists the loaded persistent heaps.
func (rt *Runtime) Heaps() []*pheap.Heap { return append([]*pheap.Heap(nil), rt.heaps...) }

// SyncHeap writes a heap's persisted image to the name manager's backing
// store (a shutdown msync; meaningful when HeapDir is configured). It
// does not stop mutators, so the image's region tops may trail what they
// allocated; loading it recovers the rest (pheap.Load's forward parse).
func (rt *Runtime) SyncHeap(name string) error { return rt.mgr.Sync(name) }

// Close is the orderly shutdown of the loaded heaps: with the world
// stopped, every heap's region tops are made exact (pheap.PersistTops), so
// the next load of each image parses nothing forward. Durability never
// depends on it — an operation persists what it acknowledges, and a load
// after a crash finds it — and the runtime stays usable afterwards.
func (rt *Runtime) Close() {
	rt.gcMu.Lock()
	defer rt.gcMu.Unlock()
	rt.world.Stop()
	defer rt.world.Start()
	for _, h := range rt.heaps {
		h.PersistTops()
	}
}

func (rt *Runtime) attach(h *pheap.Heap) {
	// The heap's reference stores feed the runtime's remembered set
	// through per-mutator delta buffers; the sink is their drain target.
	h.SetRemsetSink(remsetSink{rt})
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.heaps = append(rt.heaps, h)
	for i := len(rt.heaps) - 1; i > 0 && rt.heaps[i-1].Base() > rt.heaps[i].Base(); i-- {
		rt.heaps[i-1], rt.heaps[i] = rt.heaps[i], rt.heaps[i-1]
	}
	rt.heapByName[h.Name()] = h
	rt.active = h
}

func (rt *Runtime) overlaps(h *pheap.Heap) *pheap.Heap {
	for _, other := range rt.heaps {
		if h.Base() < other.Limit() && other.Base() < h.Limit() {
			return other
		}
	}
	return nil
}
