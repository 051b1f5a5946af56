package core

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// TestPNewImage: a fresh object's image rides its allocation. The call
// costs PNew's one flush and fence and none of its own, the object is
// durable as imaged the moment the call returns, its reference slots went
// through the barrier, and a store type-based safety forbids fails before
// anything is allocated.
func TestPNewImage(t *testing.T) {
	rt := newRT(t, Config{PJHDataSize: 1 << 20})
	h, err := rt.CreateHeap("img", 0)
	if err != nil {
		t.Fatal(err)
	}
	k := personKlass(t, rt)
	nameF := rt.MustResolveField(k, "name")
	name, err := rt.NewString("imaged", true) // and the klass records, outside the window
	if err != nil {
		t.Fatal(err)
	}
	// The set-up object is flushed, so no header of it is left deferred for
	// the window's allocation to settle.
	setup, err := rt.PNew(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.FlushObject(setup); err != nil {
		t.Fatal(err)
	}
	image := func(id int64, name layout.Ref) []byte {
		img := make([]byte, 2*layout.WordSize)
		binary.LittleEndian.PutUint64(img, uint64(id))
		binary.LittleEndian.PutUint64(img[nameF.Offset()-layout.FieldOff(0):], uint64(name))
		return img
	}

	dev := h.Device()
	s0 := dev.Stats()
	ref, err := pnewImage(rt, k, image(42, name), []int{nameF.Offset()})
	if err != nil {
		t.Fatal(err)
	}
	if d := dev.Stats().Sub(s0); d.Flushes != 1 || d.Fences != 1 {
		t.Fatalf("PNewImage flushes/fences = %d/%d, want 1/1 (the object, once)", d.Flushes, d.Fences)
	}

	rt2 := newRT(t, Config{})
	if err := rt2.NameManager().Register("img", nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.LoadHeap("img"); err != nil {
		t.Fatal(err)
	}
	id, err := rt2.GetLong(ref, "id")
	if err != nil || id != 42 {
		t.Fatalf("after power loss: id = %d, %v", id, err)
	}
	if s, err := rt2.GetString(rt2.GetRefFast(ref, nameF)); err != nil || s != "imaged" {
		t.Fatalf("after power loss: name = %q, %v", s, err)
	}

	// A volatile value is legal at this safety level and must reach the
	// remembered set like any other reference store.
	vname, err := rt.NewString("volatile", false)
	if err != nil {
		t.Fatal(err)
	}
	vref, err := pnewImage(rt, k, image(43, vname), []int{nameF.Offset()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rt.NVMToVolSlots(), []layout.Ref{vref + layout.Ref(nameF.Offset())}; !slices.Equal(got, want) {
		t.Fatalf("remembered set %#x, want %#x", got, want)
	}

	strict := newRT(t, Config{PJHDataSize: 1 << 20, Safety: TypeBased})
	sh, err := strict.CreateHeap("strict", 0)
	if err != nil {
		t.Fatal(err)
	}
	good := klass.MustInstance("Good", nil, klass.Field{Name: "name", Type: layout.FTRef, RefKlass: StringKlassName})
	good.Persistent = true
	if _, err := strict.PNew(good, 0); err != nil {
		t.Fatal(err)
	}
	svol, err := strict.NewString("volatile", false)
	if err != nil {
		t.Fatal(err)
	}
	top := sh.Top()
	img := make([]byte, layout.WordSize)
	binary.LittleEndian.PutUint64(img, uint64(svol))
	if _, err := pnewImage(strict, good, img, []int{layout.FieldOff(0)}); err == nil {
		t.Fatal("type-based safety let a volatile reference into a fresh image")
	}
	if sh.Top() != top {
		t.Fatalf("the refused PNewImage allocated: top %d → %d", top, sh.Top())
	}
}

// TestPNewImageWithStrings: a fresh object's string columns are allocated
// with it. On a mutator the strings and the instance naming them are one
// allocation run — one flush, one fence, every object durable when the
// call returns; on the runtime the same call allocates them one at a time.
// Either way the result reads back the same, and a string aimed at a slot
// that is not a reference slot is refused before anything is allocated.
func TestPNewImageWithStrings(t *testing.T) {
	rt := newRT(t, Config{PJHDataSize: 1 << 20})
	h, err := rt.CreateHeap("img", 0)
	if err != nil {
		t.Fatal(err)
	}
	k := personKlass(t, rt)
	nameF := rt.MustResolveField(k, "name")
	m, err := rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	for _, s := range []surface{rt, m} { // klass records and PLABs, outside the windows
		if _, err := pnewImage(s, k, make([]byte, 2*layout.WordSize), []int{nameF.Offset()}, ImageString{nameF.Offset(), "warm"}); err != nil {
			t.Fatal(err)
		}
	}
	dev := h.Device()
	for _, tc := range []struct {
		who             string
		s               surface
		flushes, fences uint64
	}{{"mutator", m, 1, 1}, {"runtime", rt, 2, 2}} {
		img := make([]byte, 2*layout.WordSize)
		binary.LittleEndian.PutUint64(img, 7)
		s0 := dev.Stats()
		ref, err := pnewImage(tc.s, k, img, []int{nameF.Offset()}, ImageString{nameF.Offset(), "columnar " + tc.who})
		if err != nil {
			t.Fatal(err)
		}
		if d := dev.Stats().Sub(s0); d.Flushes != tc.flushes || d.Fences != tc.fences {
			t.Fatalf("%s: PNewImage with a string flushes/fences = %d/%d, want %d/%d", tc.who, d.Flushes, d.Fences, tc.flushes, tc.fences)
		}
		rt2 := newRT(t, Config{})
		if err := rt2.NameManager().Register("img", nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})); err != nil {
			t.Fatal(err)
		}
		if _, err := rt2.LoadHeap("img"); err != nil {
			t.Fatal(err)
		}
		if id, err := rt2.GetLong(ref, "id"); err != nil || id != 7 {
			t.Fatalf("%s: after power loss: id = %d, %v", tc.who, id, err)
		}
		if s, err := rt2.GetString(rt2.GetRefFast(ref, nameF)); err != nil || s != "columnar "+tc.who {
			t.Fatalf("%s: after power loss: name = %q, %v", tc.who, s, err)
		}
	}
	top := h.Top()
	if _, err := pnewImage(m, k, make([]byte, 2*layout.WordSize), []int{nameF.Offset()}, ImageString{layout.FieldOff(0), "id is a long"}); err == nil {
		t.Fatal("a string aimed at a long column was accepted")
	}
	if h.Top() != top {
		t.Fatalf("the refused PNewImage allocated: top %d → %d", top, h.Top())
	}
}

// pnewImage is PNewImage of one image.
func pnewImage(s surface, k *klass.Klass, img []byte, refOffs []int, strs ...ImageString) (layout.Ref, error) {
	refs := []layout.Ref{0}
	err := s.PNewImage([]NewImage{{K: k, Img: img, RefOffs: refOffs, Strs: strs}}, refs)
	return refs[0], err
}

// TestPNewImageRuns: many images in one call on a mutator go out as
// allocation runs bounded by the PLAB's headroom. Every object lands at
// the address one call per image gives it — the PLAB retired and refilled
// where those calls retire and refill it — so the heap uses the same
// bytes; the call fences once per run instead of once per image, and
// flushes no more lines; and every image reads back after a power loss.
func TestPNewImageRuns(t *testing.T) {
	const n = 100 // about 85 KB of strings, crossing a PLAB left ~56 KB
	name := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), 700+i%300) }
	type world struct {
		h     *pheap.Heap
		m     *Mutator
		k     *klass.Klass
		nameF FieldRef
	}
	newWorld := func() world {
		rt := newRT(t, Config{PJHDataSize: 2 << 20})
		h, err := rt.CreateHeap("img", 0)
		if err != nil {
			t.Fatal(err)
		}
		w := world{h: h, k: personKlass(t, rt)}
		w.nameF = rt.MustResolveField(w.k, "name")
		if w.m, err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.m.Release)
		// Klass records and a PLAB with about 56 KB left, outside the window.
		for range 2 {
			if _, err := pnewImage(w.m, w.k, make([]byte, 2*layout.WordSize), []int{w.nameF.Offset()}, ImageString{w.nameF.Offset(), strings.Repeat("w", 100_000)}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	image := func(w world, i int) NewImage {
		img := make([]byte, 2*layout.WordSize)
		binary.LittleEndian.PutUint64(img, uint64(i))
		return NewImage{K: w.k, Img: img, RefOffs: []int{w.nameF.Offset()}, Strs: []ImageString{{w.nameF.Offset(), name(i)}}}
	}

	batch, single := newWorld(), newWorld()
	imgs, refs := make([]NewImage, n), make([]layout.Ref, n)
	for i := range imgs {
		imgs[i] = image(batch, i)
	}
	s0, a0 := batch.h.Device().Stats(), batch.m.AllocStats()
	if err := batch.m.PNewImage(imgs, refs); err != nil {
		t.Fatal(err)
	}
	d, dispenses := batch.h.Device().Stats().Sub(s0), batch.m.AllocStats().Dispenses-a0.Dispenses
	if dispenses == 0 {
		t.Fatal("the call never refilled the PLAB")
	}

	s0 = single.h.Device().Stats()
	for i := range n {
		im := image(single, i)
		ref, err := pnewImage(single.m, im.K, im.Img, im.RefOffs, im.Strs...)
		if err != nil {
			t.Fatal(err)
		}
		if ref != refs[i] {
			t.Fatalf("image %d landed at %#x in one call, %#x in a call of its own", i, refs[i], ref)
		}
	}
	one := single.h.Device().Stats().Sub(s0)
	if batch.h.UsedBytes() != single.h.UsedBytes() {
		t.Fatalf("the heap uses %d bytes after one call, %d after one call per image", batch.h.UsedBytes(), single.h.UsedBytes())
	}
	// A refill's retire and dispense cost both sides the same; beside them,
	// one call per image fences n times, the runs 1 + 2·dispenses times (a
	// run up to each refill, the image that refills alone, and the last:
	// none reaches the humongous threshold that would also close one).
	if runs := 1 + 2*uint64(dispenses); d.Fences+n != one.Fences+runs {
		t.Fatalf("%d fences in one call, %d in one call per image: want %d runs' worth fewer than %d", d.Fences, one.Fences, runs, n)
	}
	if d.FlushedLines > one.FlushedLines {
		t.Fatalf("one call flushed %d lines, one call per image %d", d.FlushedLines, one.FlushedLines)
	}

	rt2 := newRT(t, Config{})
	if err := rt2.NameManager().Register("img", nvm.FromImage(batch.h.Device().CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.LoadHeap("img"); err != nil {
		t.Fatal(err)
	}
	for i, ref := range refs {
		if id, err := rt2.GetLong(ref, "id"); err != nil || id != int64(i) {
			t.Fatalf("image %d after power loss: id = %d, %v", i, id, err)
		}
		if s, err := rt2.GetString(rt2.GetRefFast(ref, batch.nameF)); err != nil || s != name(i) {
			t.Fatalf("image %d after power loss: name of %d bytes, %v", i, len(s), err)
		}
	}
}

// TestWriteFieldImageFlushesWhatChanged: an image over a field area of
// several lines costs the lines of the span it changed — one column, one
// line — and is durable all the same; the image the object already holds
// costs the device nothing.
func TestWriteFieldImageFlushesWhatChanged(t *testing.T) {
	rt := newRT(t, Config{PJHDataSize: 1 << 20})
	h, err := rt.CreateHeap("img", 0)
	if err != nil {
		t.Fatal(err)
	}
	const cols = 32 // four lines of longs
	fields := make([]klass.Field, cols)
	for i := range fields {
		fields[i] = klass.Field{Name: string(rune('A' + i)), Type: layout.FTLong}
	}
	ref, err := rt.PNew(klass.MustInstance("Wide", nil, fields...), 0)
	if err != nil {
		t.Fatal(err)
	}
	old := make([]byte, cols*layout.WordSize)
	if err := rt.ReadFieldImage(ref, old); err != nil {
		t.Fatal(err)
	}
	dev, base := h.Device(), h.OffOf(ref)+layout.FieldOff(0)
	for _, c := range []struct {
		name string
		cols []int // ascending
	}{
		{"one column", []int{17}}, // one line, wherever the object lies
		{"two neighbours", []int{17, 18}},
		{"the first and the last", []int{0, cols - 1}},
		{"none", nil},
	} {
		img := slices.Clone(old)
		var want nvm.Stats
		for _, i := range c.cols {
			img[i*layout.WordSize]++
		}
		if c.cols != nil {
			lo, hi := c.cols[0]*layout.WordSize, (c.cols[len(c.cols)-1]+1)*layout.WordSize
			want.FlushedLines, want.Fences = uint64(nvm.LineSpan(base+lo, hi-lo)), 1
		}
		s0 := dev.Stats()
		if err := rt.WriteFieldImage(ref, old, img, nil); err != nil {
			t.Fatal(err)
		}
		d := dev.Stats().Sub(s0)
		if d.FlushedLines != want.FlushedLines || d.Fences != want.Fences || (c.cols == nil && d != nvm.Stats{}) {
			t.Fatalf("%s: %d lines / %d fences (%+v), want %d / %d", c.name, d.FlushedLines, d.Fences, d, want.FlushedLines, want.Fences)
		}
		got := make([]byte, len(img))
		nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{}).ReadBytes(base, got)
		if !slices.Equal(got, img) {
			t.Fatalf("%s: after power loss the field area is not the image", c.name)
		}
		old = img
	}
}
