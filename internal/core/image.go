package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"espresso/internal/layout"
)

// Bulk object materialization: the coalesced-device-I/O discipline of
// NewString extended to whole instance field areas. A provider (pjo)
// assembles the object's image in a DRAM staging buffer and ships it
// with bulk device writes for the primitive spans, one atomic word store
// per reference slot, and one FlushRange — instead of a device word
// store (and, on the flush side, a line flush) per dirty field. Device
// cost per entity persist is O(1) in the dirty-field count: it depends
// only on the schema's reference-column count, never on how many fields
// a commit touched.
//
// Reference slots keep the full write barrier and the full access
// discipline: each goes through pheap's StoreRef on the context the
// accessor chooses (concurrent publications and the marker re-read slots
// with atomic loads, which a bulk memmove over a reference slot would tear
// against), and type-based safety vets volatile values before any byte
// lands.

// ReadFieldImage fills dst with the object's field area — starting at
// the first instance field — using a single bulk device read. The caller
// sizes dst (nFields × WordSize for all-word layouts like pjo's
// DBPersistables).
func (a *Accessor) ReadFieldImage(ref layout.Ref, dst []byte) error {
	a.enter()
	defer a.exit()
	x := a.ctxOf(ref)
	if x == nil {
		return fmt.Errorf("core: ReadFieldImage of a non-persistent object %#x", uint64(ref))
	}
	x.ReadBytesAt(ref, layout.FieldOff(0), dst)
	return nil
}

// WriteFieldImage stores img over the object's field area (starting at
// the first instance field) and persists it with one FlushRange + fence.
// refOffs lists the object-relative byte offsets of the reference-typed
// slots inside the image; each gets the same type-based safety check and
// the same barrier as storeRef (no bulk memmove ever covers one). The
// primitive spans between reference slots move with bulk
// writes, so total device writes per call are bounded by the schema's
// reference-column count plus its contiguous primitive runs — never by
// the field count.
func (a *Accessor) WriteFieldImage(ref layout.Ref, img []byte, refOffs []int) error {
	a.enter()
	defer a.exit()
	rt := a.rt
	x := a.ctxOf(ref)
	if x == nil {
		return fmt.Errorf("core: WriteFieldImage of a non-persistent object %#x", uint64(ref))
	}
	base := layout.FieldOff(0)
	if len(img)%layout.WordSize != 0 {
		return fmt.Errorf("core: WriteFieldImage of %d bytes (not word-aligned)", len(img))
	}
	// Validate every ref slot before any barrier bookkeeping or byte
	// lands: a failure must leave no recorded delta for a store that
	// never happened, and no partially written image.
	sorted := append([]int(nil), refOffs...)
	sort.Ints(sorted)
	for i, boff := range sorted {
		if boff < base || boff+layout.WordSize > base+len(img) || (boff-base)%layout.WordSize != 0 {
			return fmt.Errorf("core: WriteFieldImage ref slot offset %d outside image", boff)
		}
		if i > 0 && sorted[i-1] == boff {
			return fmt.Errorf("core: WriteFieldImage duplicate ref slot offset %d", boff)
		}
		if rt.cfg.Safety == TypeBased {
			val := layout.Ref(binary.LittleEndian.Uint64(img[boff-base:]))
			if val != layout.NullRef && rt.vol.Contains(val) {
				return fmt.Errorf("core: type-based safety forbids storing a volatile reference into NVM")
			}
		}
	}
	// Ship the image: bulk-write each primitive run, send each reference
	// slot through the barrier.
	run := base
	writeRun := func(upto int) {
		if upto > run {
			x.WriteBytesAt(ref, run, img[run-base:upto-base])
		}
	}
	for _, boff := range sorted {
		writeRun(boff)
		run = boff + layout.WordSize
		val := layout.Ref(binary.LittleEndian.Uint64(img[boff-base:]))
		x.StoreRef(ref, boff, val, val != layout.NullRef && rt.vol.Contains(val))
	}
	writeRun(base + len(img))
	x.FlushRange(ref, base, len(img))
	return nil
}
