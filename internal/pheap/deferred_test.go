package pheap

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// The deferred header (alloc.go): a plain Alloc on the bump path returns
// with its header unflushed, and one of three events settles it — a flush
// whose lines cover it, a store that names the object, or the allocator's
// next allocation (and, standing in for it, Release and the safepoint's
// persistOpenTops). TestCrashSweepDeferredHeader crashes every way there is
// to get from Alloc to a durable name.
//
// Each of these bugs, planted in a copy of this package, fails the sweep:
//
//  1. Allocator.StoreRef without its Settle: a slot is flushed naming a
//     header nothing has written back (the StoreRef path; flushed-only,
//     right after the slot's flush).
//  2. AllocInit without settleOwn: the next-allocation path names an
//     object whose header no flush has covered.
//  3. coveredHeaders without its line check, so any flush through the
//     region clears the word: the field flush of a two-line object, which
//     never reaches the header's line, clears it, and the StoreRef after
//     it finds nothing to settle.
//  4. persistOpenTops without its settle: PersistTops persists a top above
//     a header that is not durable, so the reloaded region no longer
//     parses.

// deferPath is how one object of the sweep's workload gets its name.
type deferPath int

const (
	byStoreRef       deferPath = iota // a StoreRef into the rooted holder
	bySetRoot                         // a root entry of its own
	byCoveringFlush                   // FlushRange over the object, then a plain store
	byNextAlloc                       // nothing until the next allocation, then a plain store
	byRelease                         // Release, then a plain store through a fresh allocator
	byPersistTops                     // PersistTops, then a plain store
	byFieldThenStore                  // a flush of a later line of the object only, then a StoreRef
	numDeferPaths
)

// deferFixture is one heap with its allocator under test, the rooted
// holder whose slots name the objects (allocated off the heap's own PLAB,
// so it shares no region with them), and the two-line node klass.
type deferFixture struct {
	h      *Heap
	a      *Allocator
	node   *klass.Klass
	holder layout.Ref
}

// deferSlots is the holder's length: one slot per object of the workload.
const deferSlots = 3 * int(numDeferPaths)

func newDeferFixture(t *testing.T) *deferFixture {
	t.Helper()
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	node, err := reg.Define(klass.MustInstance("defer/Node", nil, manyFields(10)...)) // 96 bytes
	if err != nil {
		t.Fatal(err)
	}
	f := &deferFixture{h: h, a: h.NewAllocator(), node: node}
	if f.holder, err = h.AllocInit(reg.ObjArray(node.Name), deferSlots, func(layout.Ref) {}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("defer/holder", f.holder); err != nil {
		t.Fatal(err)
	}
	// The PLAB's first object persists its header at once; attach the PLAB
	// now, so every object of the run starts out deferred.
	if _, err := f.a.Alloc(node, 0); err != nil {
		t.Fatal(err)
	}
	h.Device().FlushAll()
	return f
}

// run allocates one object per path, in order, and names each.
func (f *deferFixture) run() error {
	type named struct {
		obj  layout.Ref
		slot int
	}
	var waiting *named // the byNextAlloc object, named after the next allocation
	slotOff := func(i int) int { return layout.ElemOff(layout.FTRef, i) }
	// name is a store that settles nothing, made durable: it may only name
	// an object the path under test has already settled.
	name := func(obj layout.Ref, i int) {
		f.a.SetWord(f.holder, slotOff(i), uint64(obj))
		f.a.FlushRange(f.holder, slotOff(i), layout.WordSize)
	}
	for i := 0; i < deferSlots; i++ {
		obj, err := f.a.Alloc(f.node, 0)
		if err != nil {
			return err
		}
		if waiting != nil {
			name(waiting.obj, waiting.slot)
			waiting = nil
		}
		switch deferPath(i % int(numDeferPaths)) {
		case byStoreRef:
			f.a.StoreRef(f.holder, slotOff(i), obj, false)
			f.a.FlushRange(f.holder, slotOff(i), layout.WordSize)
		case bySetRoot:
			if err := f.h.SetRoot(fmt.Sprintf("defer/%d", i), obj); err != nil {
				return err
			}
		case byCoveringFlush:
			f.a.FlushRange(obj, 0, f.node.SizeOf(0))
			name(obj, i)
		case byNextAlloc:
			waiting = &named{obj, i}
		case byRelease:
			f.a.Release()
			f.a = f.h.NewAllocator()
			name(obj, i)
			// The new PLAB's first object persists its header at once;
			// allocate it here, so the next path's object is deferred.
			if _, err := f.a.Alloc(f.node, 0); err != nil {
				return err
			}
		case byPersistTops:
			f.h.PersistTops()
			name(obj, i)
		case byFieldThenStore:
			f.a.FlushRange(obj, layout.FieldOff(9), layout.WordSize)
			f.a.StoreRef(f.holder, slotOff(i), obj, false)
			f.a.FlushRange(f.holder, slotOff(i), layout.WordSize)
		}
	}
	// The path order leaves nothing waiting here. A trailing object nothing
	// names: it may be in an image or not.
	_, err := f.a.Alloc(f.node, 0)
	return err
}

// checkDeferredImage reloads img and requires it to parse, and every
// object a durable word names — a holder slot, a root — to be a parsed
// node. It returns how many objects are named.
func checkDeferredImage(t *testing.T, tag string, img []byte) int {
	t.Helper()
	re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("%s: load: %v", tag, err)
	}
	parsed := map[int]string{}
	if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		parsed[off] = k.Name
		return true
	}); err != nil {
		t.Fatalf("%s: image does not parse: %v", tag, err)
	}
	holder, ok := re.GetRoot("defer/holder")
	if !ok || parsed[re.OffOf(holder)] == "" {
		t.Fatalf("%s: the holder is not in the image", tag)
	}
	named := 0
	check := func(what string, ref layout.Ref) {
		if ref == layout.NullRef {
			return
		}
		named++
		if parsed[re.OffOf(ref)] != "defer/Node" {
			t.Fatalf("%s: %s names %#x, which is not a parsed node of the image", tag, what, uint64(ref))
		}
	}
	for i := 0; i < deferSlots; i++ {
		check(fmt.Sprintf("holder slot %d", i), layout.Ref(re.GetWord(holder, layout.ElemOff(layout.FTRef, i))))
		if ref, ok := re.GetRoot(fmt.Sprintf("defer/%d", i)); ok {
			check(fmt.Sprintf("root defer/%d", i), ref)
		}
	}
	return named
}

// TestCrashSweepDeferredHeader crashes the workload after every flush and
// reopens the image each crash policy leaves — flushed-only, all-dirty,
// random eviction — and then inside every flush, keeping its first line or
// none of it. The oracle is the recovery rule's: the image parses, and
// every object a durable word names is a parsed object. An unnamed
// trailing object may be absent.
func TestCrashSweepDeferredHeader(t *testing.T) {
	type policy struct {
		name  string
		p     nvm.CrashPolicy
		seeds int
	}
	policies := []policy{{"flushed-only", nvm.CrashFlushedOnly, 1}, {"all-dirty", nvm.CrashAllDirty, 1}, {"eviction", nvm.CrashRandomEviction, 8}}
	flushes := uint64(0)
	for k := uint64(1); ; k++ {
		f := newDeferFixture(t)
		dev := f.h.Device()
		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, f.run)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, pol := range policies {
			for seed := 0; seed < pol.seeds; seed++ {
				checkDeferredImage(t, fmt.Sprintf("k=%d %s seed %d", k, pol.name, seed), dev.CrashImage(pol.p, int64(k)<<8|int64(seed)))
			}
		}
		if !crashed {
			// Every object but the trailing one is named, and found.
			if n := checkDeferredImage(t, "done", dev.CrashImage(nvm.CrashFlushedOnly, 0)); n != deferSlots {
				t.Fatalf("completed run: %d objects named, want %d", n, deferSlots)
			}
			flushes = k - 1
			break
		}
	}
	keeps := map[string]func(int) bool{
		"first line": func(l int) bool { return l == 0 },
		"none":       func(int) bool { return false },
	}
	for k := uint64(1); k <= flushes; k++ {
		for kname, keep := range keeps {
			f := newDeferFixture(t)
			dev := f.h.Device()
			faultdev.CrashInsideFlush(dev, dev.Stats().Flushes+k, keep)
			crashed, err := faultdev.Run(dev, f.run)
			dev.SetFlushFault(nil)
			if err != nil || !crashed {
				t.Fatalf("inside flush %d (%s): crashed = %v, err = %v", k, kname, crashed, err)
			}
			checkDeferredImage(t, fmt.Sprintf("inside flush %d, %s kept", k, kname), dev.CrashImage(nvm.CrashFlushedOnly, 0))
		}
	}
}
