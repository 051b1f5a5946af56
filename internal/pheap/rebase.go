package pheap

import (
	"fmt"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// Rebase moves the heap to a new virtual base address, the paper's remap
// fallback for when loadHeap finds the address hint occupied: "Since all
// the pointers within heap become trash, a thorough scan is warranted to
// update pointers. The remap phase might be very costly, but it may rarely
// happen thanks to the large virtual address space of 64-bit OSes."
//
// Every intra-heap pointer is rewritten: object klass words (they address
// Klass records inside the image), reference fields and elements, name
// table values (Klass entries and root entries), and the metadata address
// hint. Like the paper, the remap is not crash-atomic: it runs at load
// time before the heap is published, and a crash mid-remap requires
// remapping again from the file image.
func (h *Heap) Rebase(newBase layout.Ref) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gcActive.Load() {
		return fmt.Errorf("pheap: cannot rebase a heap mid-collection")
	}
	oldBase := h.base
	if newBase == oldBase {
		return nil
	}
	oldLimit := oldBase + layout.Ref(h.dev.Size())
	delta := int64(newBase) - int64(oldBase)
	shift := func(r layout.Ref) layout.Ref { return layout.Ref(int64(r) + delta) }
	inOld := func(r layout.Ref) bool { return r >= oldBase && r < oldLimit }

	// Objects: klass words always point into the image; data refs may.
	// The region walk visits everything below each region's top — the
	// same set the single-top scan covered, now per region.
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		kaddr := layout.Ref(h.dev.ReadU64(off + layout.KlassWordOff))
		h.dev.WriteU64(off+layout.KlassWordOff, uint64(shift(kaddr)))
		RefSlots(h.dev, off, k, func(slotBoff int) {
			// Slot values may carry low link-state tag bits
			// (layout.RefTagMask); strip them before the range check and
			// carry them over the shift unchanged.
			raw := layout.Ref(h.dev.ReadU64(off + slotBoff))
			v := layout.UntagRef(raw)
			if v != layout.NullRef && inOld(v) {
				h.dev.WriteU64(off+slotBoff, uint64(shift(v)|layout.RefTag(raw)))
			}
		})
		return true
	}); err != nil {
		return fmt.Errorf("pheap: rebase: %w", err)
	}

	// Name table values: klass entries and root entries are image
	// addresses; shift both.
	for s := 0; s < h.geo.NameTabCap; s++ {
		eoff := h.entryOff(s)
		if h.dev.ReadU64(eoff) != entryStateCommitted {
			continue
		}
		v := layout.Ref(h.dev.ReadU64(eoff + entryValueOff))
		if v != layout.NullRef && inOld(v) {
			h.dev.WriteU64(eoff+entryValueOff, uint64(shift(v)))
		}
	}

	// Metadata and the in-memory mirrors. Region tops are device offsets,
	// not virtual addresses, so the table is untouched by a rebase.
	h.dev.WriteU64(mAddressHint, uint64(newBase))
	h.base = newBase
	old := h.kseg.Load()
	m := &klassMaps{
		byAddr: make(map[layout.Ref]*klass.Klass, len(old.byAddr)),
		byName: make(map[string]layout.Ref, len(old.byName)),
	}
	for addr, k := range old.byAddr {
		m.byAddr[shift(addr)] = k
		m.byName[k.Name] = shift(addr)
	}
	h.kseg.Store(m)
	// The cached filler record addresses shifted with the maps.
	h.resolveFillers()

	h.dev.Persist(0, h.dev.Size())
	h.BumpLayoutEpoch()
	return nil
}
