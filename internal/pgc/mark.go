package pgc

import (
	"espresso/internal/layout"
	"espresso/internal/pgc/marker"
	"espresso/internal/pheap"
)

// Rooter supplies the collector with roots that live outside the heap
// image: DRAM slots (volatile-heap fields, runtime handles) holding
// references into the persistent heap. The name-table roots are handled
// by the collector itself.
type Rooter interface {
	// Roots calls visit with every candidate external root reference.
	// Non-heap values are ignored by the collector.
	Roots(visit func(layout.Ref))
	// UpdateRoots applies the forwarding function to every external slot
	// and stores the result back, after compaction has moved objects.
	UpdateRoots(fwd func(layout.Ref) layout.Ref)
}

// NoRoots is the Rooter for a heap with no live DRAM references — the
// situation during recovery, when the previous process's DRAM is gone.
type NoRoots struct{}

// Roots is a no-op: there are no external roots.
func (NoRoots) Roots(func(layout.Ref)) {}

// UpdateRoots is a no-op: there are no external slots to patch.
func (NoRoots) UpdateRoots(func(layout.Ref) layout.Ref) {}

// heapRoots collects the root set: name-table roots plus ext's roots,
// filtered to references into h.
func heapRoots(h *pheap.Heap, ext Rooter) []layout.Ref {
	var roots []layout.Ref
	add := func(ref layout.Ref) {
		if ref != layout.NullRef && h.Contains(ref) {
			roots = append(roots, ref)
		}
	}
	for _, r := range h.Roots() {
		add(r.Ref)
	}
	if ext != nil {
		ext.Roots(add)
	}
	return roots
}

// mark traces the heap from the name-table roots plus ext's roots,
// setting begin and end bits in the mark bitmap for every live object,
// and returns the marker (counts, outgoing-reference summary), which the
// caller releases.
func mark(h *pheap.Heap, ext Rooter, workers int) (*marker.Marker, error) {
	h.MarkBitmap().ClearAll()
	h.RegionBitmap().ClearAll()
	mk := marker.NewMarker(h, workers)
	if err := mk.MarkRoots(heapRoots(h, ext)); err != nil {
		mk.Release()
		return nil, err
	}
	return mk, nil
}
