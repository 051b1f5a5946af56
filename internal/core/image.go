package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// Bulk object materialization: the coalesced-device-I/O discipline of
// NewString extended to whole instance field areas. A provider (pjo)
// assembles the object's image in a DRAM staging buffer and ships it
// with bulk device writes for the primitive spans, one atomic word store
// per reference slot, and one FlushRange — instead of a device word
// store (and, on the flush side, a line flush) per dirty field. Device
// cost per entity persist is O(1) in the dirty-field count: it depends
// only on the schema's reference-column count, never on how many fields
// a commit touched. A fresh object takes its image inside its allocation
// (PNewImage), so the image's flush is the allocation's.
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
	defer a.exit(a.enter())
	x := a.ctxOf(ref)
	if x == nil {
		return fmt.Errorf("core: ReadFieldImage of a non-persistent object %#x", uint64(ref))
	}
	x.ReadBytesAt(ref, layout.FieldOff(0), dst)
	return nil
}

// WriteFieldImage stores img over the object's field area (starting at
// the first instance field), which held old — the caller's ReadFieldImage
// of it — and persists what that changed with one FlushRange + fence: the
// span of the image outside which the two agree, whose lines are the only
// ones the store gave new contents. The same image again stores nothing.
// refOffs lists the object-relative byte offsets of the reference-typed
// slots inside the image; each gets the same type-based safety check and
// the same barrier as storeRef (no bulk memmove ever covers one). The
// primitive spans between reference slots move with bulk
// writes, so total device writes per call are bounded by the schema's
// reference-column count plus its contiguous primitive runs — never by
// the field count.
func (a *Accessor) WriteFieldImage(ref layout.Ref, old, img []byte, refOffs []int) error {
	defer a.exit(a.enter())
	x := a.ctxOf(ref)
	if x == nil {
		return fmt.Errorf("core: WriteFieldImage of a non-persistent object %#x", uint64(ref))
	}
	if len(old) != len(img) {
		return fmt.Errorf("core: WriteFieldImage of %d bytes over an image of %d", len(img), len(old))
	}
	sorted, err := a.rt.vetImage("WriteFieldImage", img, refOffs)
	if err != nil {
		return err
	}
	lo, hi := nvm.DiffSpan(old, img)
	if lo == hi {
		return nil
	}
	a.shipImage(x, ref, img, sorted)
	x.FlushRange(ref, layout.FieldOff(0)+lo, hi-lo)
	return nil
}

// ImageString is a string column of a PNewImage: S becomes a persistent
// string allocated with the instance, and its reference lands in the
// instance's reference slot at object-relative byte offset Boff (one of
// the call's refOffs), over whatever img holds there.
type ImageString struct {
	Boff int
	S    string
}

// PNewImage allocates a persistent instance of k whose field area is img
// — PNew and WriteFieldImage as one operation: the image ships inside the
// allocation (the same validation, the same bulk runs and barriered
// reference stores), so header and fields are persisted by the
// allocation's one flush and fence, and the object is durable as imaged
// when it becomes reachable. On a Mutator the strings of strs are part of
// the same allocation run (pheap's AllocRun: the strings, then the
// instance naming them, one flush and one fence for all); on a Runtime
// they are allocated one at a time ahead of it.
func (a *Accessor) PNewImage(k *klass.Klass, img []byte, refOffs []int, strs ...ImageString) (layout.Ref, error) {
	defer a.exit(a.enter())
	if k.IsArray() || layout.FieldOff(0)+len(img) > k.SizeOf(0) {
		return 0, fmt.Errorf("core: PNewImage of %d bytes does not fit an instance of %s", len(img), k.Name)
	}
	sorted, err := a.rt.vetImage("PNewImage", img, refOffs)
	if err != nil {
		return 0, err
	}
	for _, s := range strs {
		if i := sort.SearchInts(sorted, s.Boff); i == len(sorted) || sorted[i] != s.Boff {
			return 0, fmt.Errorf("core: PNewImage string at offset %d, which is not a reference slot of the image", s.Boff)
		}
	}
	place := func(i int, sref layout.Ref) {
		binary.LittleEndian.PutUint64(img[strs[i].Boff-layout.FieldOff(0):], uint64(sref))
	}
	ship := func(x *pheap.Allocator, ref layout.Ref) { a.shipImage(x, ref, img, sorted) }
	if a.alloc == nil || len(strs) == 0 {
		for i, s := range strs {
			sref, err := a.newPString(s.S)
			if err != nil {
				return 0, err
			}
			place(i, sref)
		}
		return a.pnew(k, 0, ship)
	}
	for _, rk := range []*klass.Klass{a.rt.stringKlass, k} {
		if err := a.prepare(a.h, rk); err != nil {
			return 0, err
		}
	}
	objs := make([]pheap.RunObj, len(strs)+1)
	refs := make([]layout.Ref, len(objs))
	for i, s := range strs {
		objs[i] = pheap.RunObj{K: a.rt.stringKlass, ArrayLen: len(s.S)}
	}
	objs[len(strs)] = pheap.RunObj{K: k}
	x := a.alloc
	if err := x.AllocRun(objs, refs, func(i int) {
		if i < len(strs) {
			x.WriteBytesAt(refs[i], layout.ElemOff(layout.FTByte, 0), []byte(strs[i].S))
			place(i, refs[i])
			return
		}
		ship(x, refs[i])
	}); err != nil {
		return 0, fmt.Errorf("core: pnew %s: %w", k.Name, err)
	}
	return refs[len(strs)], nil
}

// vetImage validates an image and its reference slots before any barrier
// bookkeeping or byte lands: a failure must leave no remembered slot for
// a store that never happened, and no partially written image. It returns
// refOffs in ascending order.
func (rt *Runtime) vetImage(op string, img []byte, refOffs []int) ([]int, error) {
	base := layout.FieldOff(0)
	if len(img)%layout.WordSize != 0 {
		return nil, fmt.Errorf("core: %s of %d bytes (not word-aligned)", op, len(img))
	}
	sorted := refOffs
	if !sort.IntsAreSorted(sorted) {
		sorted = append([]int(nil), refOffs...)
		sort.Ints(sorted)
	}
	for i, boff := range sorted {
		if boff < base || boff+layout.WordSize > base+len(img) || (boff-base)%layout.WordSize != 0 {
			return nil, fmt.Errorf("core: %s ref slot offset %d outside image", op, boff)
		}
		if i > 0 && sorted[i-1] == boff {
			return nil, fmt.Errorf("core: %s duplicate ref slot offset %d", op, boff)
		}
		if rt.cfg.Safety == TypeBased {
			val := layout.Ref(binary.LittleEndian.Uint64(img[boff-base:]))
			if val != layout.NullRef && rt.vol.Contains(val) {
				return nil, fmt.Errorf("core: type-based safety forbids storing a volatile reference into NVM")
			}
		}
	}
	return sorted, nil
}

// shipImage stores a vetted image into the object at ref through x:
// bulk-write each primitive run, send each reference slot through the
// barrier, settling its value as storeRef does.
func (a *Accessor) shipImage(x *pheap.Allocator, ref layout.Ref, img []byte, sorted []int) {
	rt := a.rt
	base := layout.FieldOff(0)
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
		isVol := val != layout.NullRef && rt.vol.Contains(val)
		if !isVol {
			a.settleElsewhere(x, val)
		}
		x.StoreRef(ref, boff, val, isVol)
	}
	writeRun(base + len(img))
}
