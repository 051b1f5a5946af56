package pindex

import (
	"fmt"

	"espresso/internal/pheap"
)

// Recover runs Open's recovery pass (recoverLocked) over the index
// registered under name, single-threaded and without opening it for
// traffic: tests read a crash image's repairs with it. It must run after
// pgc crash recovery if the heap was mid-collection.
func Recover(h *pheap.Heap, name string) (RecoverStats, error) {
	if h.GCActive() {
		return RecoverStats{}, fmt.Errorf("pindex: heap is mid-collection; recover it first")
	}
	ix := &Index{h: h, name: name, pin: NoPin{}}
	if err := ix.resolveKlasses(); err != nil {
		return RecoverStats{}, err
	}
	if _, ok := h.GetRoot(name); !ok {
		return RecoverStats{}, fmt.Errorf("pindex: no index %q in this heap", name)
	}
	return recoverLocked(h, name, ix)
}
