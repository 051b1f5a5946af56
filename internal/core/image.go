package core

import (
	"encoding/binary"
	"fmt"
	"slices"
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

// ImageString is a string column of a fresh image: S becomes a persistent
// string allocated with the instance, and its reference lands in the
// instance's reference slot at object-relative byte offset Boff (one of
// the image's RefOffs), over whatever Img holds there.
type ImageString struct {
	Boff int
	S    string
}

// NewImage is one instance of a PNewImage call: an instance of K whose
// field area is Img, RefOffs the object-relative byte offsets of its
// reference slots (PNewImage leaves them in ascending order), and Strs its
// string columns.
type NewImage struct {
	K       *klass.Klass
	Img     []byte
	RefOffs []int
	Strs    []ImageString
}

// imageRun is PNewImage's scratch on a Mutator: one allocation run's
// objects, their addresses, and which image and string each one is (str
// == len(Strs) for the instance).
type imageRun struct {
	objs []pheap.RunObj
	refs []layout.Ref
	of   []struct{ img, str int }
}

// PNewImage allocates a persistent instance per image, refs[i] receiving
// image i's — PNew and WriteFieldImage as one operation: each image ships
// inside its allocation (the same validation, the same bulk runs and
// barriered reference stores), so header and fields are persisted by the
// allocation's flush and fence, and every object is durable as imaged
// when the call returns. Every image is vetted before any is allocated.
//
// On a Mutator the images go out in order, each as its strings and then
// the instance naming them, in allocation runs (pheap's AllocRun: one
// flush and one fence per run) as long as the PLAB has room: a run closes
// before the next image's objects would overflow the PLAB's headroom, and
// an image that does not fit an empty run goes alone, refilling the PLAB
// as a call for that image alone would. So the objects land where one call
// per image would have put them. On a Runtime each image's strings, then
// its instance, are allocated one at a time.
func (a *Accessor) PNewImage(imgs []NewImage, refs []layout.Ref) error {
	defer a.exit(a.enter())
	if len(refs) != len(imgs) {
		return fmt.Errorf("core: PNewImage of %d images into %d references", len(imgs), len(refs))
	}
	for i := range imgs {
		im := &imgs[i]
		if im.K.IsArray() || layout.FieldOff(0)+len(im.Img) > im.K.SizeOf(0) {
			return fmt.Errorf("core: PNewImage of %d bytes does not fit an instance of %s", len(im.Img), im.K.Name)
		}
		sorted, err := a.rt.vetImage("PNewImage", im.Img, im.RefOffs)
		if err != nil {
			return err
		}
		im.RefOffs = sorted
		for _, s := range im.Strs {
			if j := sort.SearchInts(sorted, s.Boff); j == len(sorted) || sorted[j] != s.Boff {
				return fmt.Errorf("core: PNewImage string at offset %d, which is not a reference slot of the image", s.Boff)
			}
		}
	}
	if a.alloc == nil {
		for i := range imgs {
			im := &imgs[i]
			for _, s := range im.Strs {
				sref, err := a.newPString(s.S)
				if err != nil {
					return err
				}
				im.place(s.Boff, sref)
			}
			ref, err := a.pnew(im.K, 0, func(x *pheap.Allocator, ref layout.Ref) { a.shipImage(x, ref, im.Img, im.RefOffs) })
			if err != nil {
				return err
			}
			refs[i] = ref
		}
		return nil
	}
	if err := a.prepare(a.h, a.rt.stringKlass); err != nil {
		return err
	}
	for i := range imgs {
		if err := a.prepare(a.h, imgs[i].K); err != nil {
			return err
		}
	}
	x, run := a.alloc, &a.run
	for lo := 0; lo < len(imgs); {
		room := min(x.Headroom(), pheap.HugeThreshold)
		run.objs, run.of = run.objs[:0], run.of[:0]
		hi, size := lo, 0
		for hi < len(imgs) {
			im := &imgs[hi]
			n := im.K.SizeOf(0)
			for _, s := range im.Strs {
				n += a.rt.stringKlass.SizeOf(len(s.S))
			}
			if size+n > room && hi > lo {
				break
			}
			for j, s := range im.Strs {
				run.objs = append(run.objs, pheap.RunObj{K: a.rt.stringKlass, ArrayLen: len(s.S)})
				run.of = append(run.of, struct{ img, str int }{hi, j})
			}
			run.objs = append(run.objs, pheap.RunObj{K: im.K})
			run.of = append(run.of, struct{ img, str int }{hi, len(im.Strs)})
			size += n
			hi++
			if size > room {
				break
			}
		}
		run.refs = slices.Grow(run.refs[:0], len(run.objs))[:len(run.objs)]
		if err := x.AllocRun(run.objs, run.refs, func(i int) {
			ref, im := run.refs[i], &imgs[run.of[i].img]
			if j := run.of[i].str; j < len(im.Strs) {
				x.WriteBytesAt(ref, layout.ElemOff(layout.FTByte, 0), []byte(im.Strs[j].S))
				im.place(im.Strs[j].Boff, ref)
				return
			}
			a.shipImage(x, ref, im.Img, im.RefOffs)
			refs[run.of[i].img] = ref
		}); err != nil {
			return fmt.Errorf("core: pnew %s: %w", imgs[lo].K.Name, err)
		}
		lo = hi
	}
	return nil
}

// place stores a string's reference into the image's slot at boff.
func (im *NewImage) place(boff int, sref layout.Ref) {
	binary.LittleEndian.PutUint64(im.Img[boff-layout.FieldOff(0):], uint64(sref))
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
