package pheap

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/telemetry"
)

// AllocInit / AllocRun tests: a crash at every flush boundary of every
// path an allocation with folded init can take, and the exactness of the
// allocation account (AllocatorStats and dev.alloc.* against the device).

const (
	boxMagic  = 0xB0B0_B0B0
	recMagicA = 0x1111_1111
	recMagicB = 0x2222_2222
	bigMagic  = 0xB16B_16B1
)

// initFixture is a heap with one allocator and the three shapes the
// sweeps allocate: a one-field box, a rec that points at a box (as a
// long, so Load's ref scan leaves it alone) and carries two magic
// fields, and a long array for the humongous path.
type initFixture struct {
	h             *Heap
	a             *Allocator
	box, rec, big *klass.Klass
}

func newInitFixture(t *testing.T, tel *telemetry.Registry) *initFixture {
	t.Helper()
	h, reg := testHeap(t, Config{DataSize: 4 << 20})
	h.SetTelemetry(tel)
	f := &initFixture{h: h, big: reg.PrimArray(layout.FTLong)}
	var err error
	if f.box, err = reg.Define(klass.MustInstance("init/Box", nil,
		klass.Field{Name: "v", Type: layout.FTLong})); err != nil {
		t.Fatal(err)
	}
	if f.rec, err = reg.Define(klass.MustInstance("init/Rec", nil,
		klass.Field{Name: "box", Type: layout.FTLong},
		klass.Field{Name: "a", Type: layout.FTLong},
		klass.Field{Name: "b", Type: layout.FTLong})); err != nil {
		t.Fatal(err)
	}
	f.a = h.NewAllocator()
	// Klass records go in now, so the windows under test hold allocation
	// traffic only.
	for _, k := range []*klass.Klass{f.box, f.rec, f.big} {
		if _, err := f.a.klassAddr(k); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func (f *initFixture) initBox(b layout.Ref) { f.a.SetWord(b, layout.FieldOff(0), boxMagic) }

func (f *initFixture) initRec(b, r layout.Ref) {
	f.a.SetWord(r, layout.FieldOff(0), uint64(b))
	f.a.SetWord(r, layout.FieldOff(1), recMagicA)
	f.a.SetWord(r, layout.FieldOff(2), recMagicB)
}

// newRec allocates a complete, boxless rec: the filling the preps use.
func (f *initFixture) newRec() (layout.Ref, error) {
	return f.a.AllocInit(f.rec, 0, func(r layout.Ref) { f.initRec(0, r) })
}

// pair allocates a box and a rec naming it as one AllocRun.
func (f *initFixture) pair() (layout.Ref, layout.Ref, error) {
	var refs [2]layout.Ref
	err := f.a.AllocRun([]RunObj{{K: f.box}, {K: f.rec}}, refs[:], func(i int) {
		if i == 0 {
			f.initBox(refs[0])
		} else {
			f.initRec(refs[0], refs[1])
		}
	})
	return refs[0], refs[1], err
}

// bigLen is an array length past the humongous threshold.
const bigLen = HugeThreshold/layout.WordSize + 64

func (f *initFixture) newBig() (layout.Ref, error) {
	return f.a.AllocInit(f.big, bigLen, func(r layout.Ref) {
		for i := 0; i < bigLen; i++ {
			f.a.SetWord(r, layout.ElemOff(layout.FTLong, i), bigMagic+uint64(i))
		}
	})
}

// digHole allocates 16 recs from the start of a fresh PLAB and turns the
// line-aligned span [lo, lo+n) inside them into a recycled hole, the way
// a collection reports one: filler-covered, below the persisted top.
func (f *initFixture) digHole(t *testing.T, lo, n int) Hole {
	t.Helper()
	var first layout.Ref
	for i := 0; i < 16; i++ {
		r, err := f.newRec()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r
		}
	}
	f.h.PersistTops() // as the collection that reports a hole has
	hole := Hole{Lo: f.h.OffOf(first) + lo, Hi: f.h.OffOf(first) + lo + n}
	r := f.h.WriteFiller(hole.Lo, n)
	f.h.Device().Flush(r.Off, r.N)
	f.h.Device().Fence()
	f.h.SetFreeHoles([]Hole{hole})
	return hole
}

// fillPLAB allocates recs until fewer than room bytes of the attached
// PLAB are left, so the next allocation of that size retires it.
func (f *initFixture) fillPLAB(t *testing.T, room int) {
	t.Helper()
	for f.a.region < 0 || f.a.end-f.a.cur >= room {
		if _, err := f.newRec(); err != nil {
			t.Fatal(err)
		}
	}
	if f.a.end == f.a.cur {
		t.Fatal("PLAB filled exactly: the retire under test would have no gap to plug")
	}
}

// verifyInitImage reloads img and requires every region to parse and
// every box, rec and long array found to be complete — header and init
// stores — with every rec's box itself a parsed, complete box. It
// returns the offsets found, by klass name.
func verifyInitImage(t *testing.T, tag string, img []byte) map[string][]int {
	t.Helper()
	re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("%s: load: %v", tag, err)
	}
	found := map[string][]int{}
	if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if !IsFiller(k) {
			found[k.Name] = append(found[k.Name], off)
		}
		return true
	}); err != nil {
		t.Fatalf("%s: image does not parse: %v", tag, err)
	}
	boxes := map[int]bool{}
	for _, off := range found["init/Box"] {
		if v := re.GetWord(re.AddrOf(off), layout.FieldOff(0)); v != boxMagic {
			t.Fatalf("%s: box at %d is half an object: v = %#x", tag, off, v)
		}
		boxes[off] = true
	}
	for _, off := range found["init/Rec"] {
		r := re.AddrOf(off)
		if a, b := re.GetWord(r, layout.FieldOff(1)), re.GetWord(r, layout.FieldOff(2)); a != recMagicA || b != recMagicB {
			t.Fatalf("%s: rec at %d is half an object: a = %#x, b = %#x", tag, off, a, b)
		}
		if b := layout.Ref(re.GetWord(r, layout.FieldOff(0))); b != 0 && !boxes[re.OffOf(b)] {
			t.Fatalf("%s: rec at %d names a box at %d that is not in the image", tag, off, re.OffOf(b))
		}
	}
	for _, off := range found[longArrayName] {
		r := re.AddrOf(off)
		if n := re.ArrayLen(r); n != bigLen {
			t.Fatalf("%s: long array at %d has length %d", tag, off, n)
		}
		for i := 0; i < bigLen; i++ {
			if v := re.GetWord(r, layout.ElemOff(layout.FTLong, i)); v != bigMagic+uint64(i) {
				t.Fatalf("%s: long array at %d is half an object: [%d] = %#x", tag, off, i, v)
			}
		}
	}
	return found
}

// longArrayName is the long-array klass's name as the registry spells it.
var longArrayName = klass.NewRegistry().PrimArray(layout.FTLong).Name

// TestAllocInitCrashAtEveryFlushBoundary crashes each allocation form on
// each path at every flush boundary it crosses. Every image must load and
// parse region by region, and hold each object of the operation either
// not at all or complete: never a header over a zeroed body, never a rec
// whose box is missing. On the bump path that has to hold under random
// eviction of unflushed lines too (the objects sit above the persisted
// top, where Load takes a header only with everything before it); in a
// hole it is checked against the flush-ordered image, as the hole
// protocol's own comment explains.
func TestAllocInitCrashAtEveryFlushBoundary(t *testing.T) {
	type outcome struct{ boxes, recs, bigs int }
	// attach gives the allocator a PLAB with one rec in it.
	attach := func(t *testing.T, f *initFixture) {
		if _, err := f.newRec(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		prep func(t *testing.T, f *initFixture)
		op   func(f *initFixture) error
		// flushes is how many flush boundaries the op crosses; adds what a
		// completed op leaves in the image on top of prep.
		flushes  int
		adds     outcome
		eviction bool
	}{
		{"bump/init", attach,
			func(f *initFixture) error { _, err := f.newRec(); return err },
			1, outcome{recs: 1}, true},
		{"bump/pair", attach,
			func(f *initFixture) error { _, _, err := f.pair(); return err },
			1, outcome{boxes: 1, recs: 1}, true},
		{"hole/init", func(t *testing.T, f *initFixture) { f.digHole(t, 192, 384) },
			func(f *initFixture) error { _, err := f.newRec(); return err },
			2, outcome{recs: 1}, false},
		{"hole/pair", func(t *testing.T, f *initFixture) { f.digHole(t, 192, 384) },
			func(f *initFixture) error { _, _, err := f.pair(); return err },
			4, outcome{boxes: 1, recs: 1}, false},
		// The hole takes the box and has no room for the rec, which bumps.
		{"hole/pair-split", func(t *testing.T, f *initFixture) { f.digHole(t, 192, 192) },
			func(f *initFixture) error {
				if _, err := f.a.AllocInit(f.box, 0, f.initBox); err != nil { // hole 192 → 160
					return err
				}
				for i := 0; i < 4; i++ { // 160 → 32
					if _, err := f.a.AllocInit(f.box, 0, f.initBox); err != nil {
						return err
					}
				}
				_, _, err := f.pair()
				return err
			},
			5*2 + 1 + 1, outcome{boxes: 6, recs: 1}, false},
		// Retire (filler, top), the new region's opened mark, the object.
		{"refill/init", func(t *testing.T, f *initFixture) { f.fillPLAB(t, 48) },
			func(f *initFixture) error { _, err := f.newRec(); return err },
			2 + 1 + 1, outcome{recs: 1}, true},
		{"refill/pair", func(t *testing.T, f *initFixture) { f.fillPLAB(t, 80) },
			func(f *initFixture) error { _, _, err := f.pair(); return err },
			2 + 1 + 1, outcome{boxes: 1, recs: 1}, true},
		{"humongous/init", attach,
			func(f *initFixture) error { _, err := f.newBig(); return err },
			2 + 3, outcome{bigs: 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k := uint64(1); ; k++ {
				f := newInitFixture(t, nil)
				tc.prep(t, f)
				dev := f.h.Device()
				dev.FlushAll()
				before := verifyInitImage(t, "prep", dev.CrashImage(nvm.CrashFlushedOnly, 0))
				faultdev.CrashIn(dev, k)
				crashed, err := faultdev.Run(dev, func() error { return tc.op(f) })
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				check := func(tag string, img []byte, complete bool) {
					got := verifyInitImage(t, tag, img)
					d := outcome{len(got["init/Box"]) - len(before["init/Box"]),
						len(got["init/Rec"]) - len(before["init/Rec"]),
						len(got[longArrayName]) - len(before[longArrayName])}
					if complete && d != tc.adds {
						t.Fatalf("%s: image gained %+v, want %+v", tag, d, tc.adds)
					}
					if d.boxes > tc.adds.boxes || d.recs > tc.adds.recs || d.bigs > tc.adds.bigs {
						t.Fatalf("%s: image gained %+v, more than the whole operation's %+v", tag, d, tc.adds)
					}
				}
				if !crashed {
					if int(k-1) != tc.flushes {
						t.Fatalf("operation crossed %d flush boundaries, want %d", k-1, tc.flushes)
					}
					check("done", dev.CrashImage(nvm.CrashFlushedOnly, 0), true)
					return
				}
				check(fmt.Sprintf("k=%d flushed-only", k), dev.CrashImage(nvm.CrashFlushedOnly, 0), false)
				if tc.eviction {
					for seed := int64(0); seed < 8; seed++ {
						check(fmt.Sprintf("k=%d eviction seed %d", k, seed),
							dev.CrashImage(nvm.CrashRandomEviction, int64(k)<<8|seed), false)
					}
				}
			}
		})
	}
}

// TestAllocRunInHoleGoesOneAtATime pins the rule that keeps a torn run
// from ever sitting below a persisted top: with a hole attached the pair
// is two hole allocations — covering filler, object, covering filler,
// object, four fences — not one run with one.
func TestAllocRunInHoleGoesOneAtATime(t *testing.T) {
	f := newInitFixture(t, nil)
	hole := f.digHole(t, 192, 384)
	top := f.h.RegionTop(f.a.region)
	st, vs := f.a.Stats(), f.a.view.Stats()
	b, r, err := f.pair()
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []layout.Ref{b, r} {
		if off := f.h.OffOf(ref); off < hole.Lo || off >= hole.Hi {
			t.Fatalf("object at %d is outside the hole [%d, %d)", off, hole.Lo, hole.Hi)
		}
	}
	if f.h.OffOf(r) != f.h.OffOf(b)+f.box.SizeOf(0) {
		t.Fatalf("box at %d, rec at %d: not back to back", f.h.OffOf(b), f.h.OffOf(r))
	}
	if got := f.h.RegionTop(f.a.region); got != top {
		t.Fatalf("region top moved %d → %d on a hole allocation", top, got)
	}
	d := f.a.view.Stats().Sub(vs)
	if d.Flushes != 4 || d.Fences != 4 {
		t.Fatalf("pair in a hole issued %d flushes / %d fences, want 4 / 4 (filler, box, filler, rec)", d.Flushes, d.Fences)
	}
	if got := f.a.Stats(); got.Allocs-st.Allocs != 2 || got.Fences-st.Fences != 4 {
		t.Fatalf("allocator stats moved by %d allocs / %d fences, want 2 / 4", got.Allocs-st.Allocs, got.Fences-st.Fences)
	}

	// The same pair with no hole in play is one run: one flush, one fence,
	// the volatile top past both and the persisted top where it was.
	f.h.ResetFreeHoles()
	f.a.holeCur, f.a.holeEnd = 0, 0
	vs = f.a.view.Stats()
	durable := f.h.dev.ReadU64(f.h.RegionTopMetaOff(f.a.region))
	b, r, err = f.pair()
	if err != nil {
		t.Fatal(err)
	}
	if d := f.a.view.Stats().Sub(vs); d.Flushes != 1 || d.Fences != 1 || d.FlushedLines > 2 {
		t.Fatalf("bump pair issued %d flushes / %d lines / %d fences, want 1 / ≤2 / 1", d.Flushes, d.FlushedLines, d.Fences)
	}
	if got, want := f.h.RegionTop(f.a.region), f.h.OffOf(r)+f.rec.SizeOf(0); got != want || f.h.OffOf(r) != f.h.OffOf(b)+f.box.SizeOf(0) {
		t.Fatalf("bump pair: box %d, rec %d, top %d", f.h.OffOf(b), f.h.OffOf(r), got)
	}
	if got := f.h.dev.ReadU64(f.h.RegionTopMetaOff(f.a.region)); got != durable {
		t.Fatalf("bump pair moved the persisted top %d → %d", durable, got)
	}
}

// TestAllocAccountIsExact checks, step by step over every allocation
// path, that what an allocation call adds to AllocatorStats and to the
// telemetry registry's dev.alloc.* counters is exactly what the owning
// view — and the device as a whole — saw during the call.
func TestAllocAccountIsExact(t *testing.T) {
	tel := telemetry.New()
	f := newInitFixture(t, tel)
	dev := f.h.Device()
	devCtr := func(s telemetry.Snapshot, metric int) uint64 {
		return s.Counters[telemetry.DevCounter(nvm.SubAlloc, metric).Name()]
	}
	step := func(name string, a *Allocator, op func() error) nvm.Stats {
		t.Helper()
		d0, v0, s0, t0 := dev.Stats(), a.view.Stats(), a.Stats(), tel.Snapshot()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, v, s, t1 := dev.Stats().Sub(d0), a.view.Stats().Sub(v0), a.Stats(), tel.Snapshot()
		v.Flushes, d.Flushes = 0, 0 // ordinals, not attributed
		if d != v {
			t.Fatalf("%s: device saw %+v, the allocator's view %+v", name, d, v)
		}
		if got := [2]int{s.FlushedLines - s0.FlushedLines, s.Fences - s0.Fences}; got != [2]int{int(v.FlushedLines), int(v.Fences)} {
			t.Fatalf("%s: AllocatorStats moved by %v lines/fences, view by %d/%d", name, got, v.FlushedLines, v.Fences)
		}
		got := [4]uint64{devCtr(t1, 0) - devCtr(t0, 0), devCtr(t1, 1) - devCtr(t0, 1), devCtr(t1, 2) - devCtr(t0, 2), devCtr(t1, 3) - devCtr(t0, 3)}
		if want := [4]uint64{v.Reads, v.Writes, v.FlushedLines, v.Fences}; got != want {
			t.Fatalf("%s: dev.alloc.{reads,writes,flushed_lines,fences} moved by %v, view by %v", name, got, want)
		}
		return v
	}

	// Alloc's device ops, pinned: zero + mark + klass is three writes per
	// object. The first, in the region it dispensed, persists its header
	// (one line, one fence) and carries the region's opened mark ({top, top
	// sum}, one line) under that fence; every later one flushes nothing of
	// its own and settles the header the one before it deferred (its line,
	// one fence), so the 2nd to 99th are settled and the last stays
	// deferred.
	var last layout.Ref
	if v := step("100 × Alloc", f.a, func() error {
		for i := 0; i < 100; i++ {
			var err error
			if last, err = f.a.Alloc(f.box, 0); err != nil {
				return err
			}
		}
		return nil
	}); v.Writes != 300+2 || v.FlushedLines != 2+98 || v.Fences != 1+98 || v.Reads != 0 {
		t.Fatalf("100 × Alloc of a one-field instance: %+v, want 302 writes / 100 lines / 99 fences", v)
	}
	// A store naming the last of them settles its header: that line and
	// fence are the allocation's, charged to AllocatorStats and dev.alloc.*,
	// and only the store itself is the barrier's. (The slot's object comes
	// off the heap's own PLAB, so allocating it settles nothing of f.a's.)
	{
		rec, err := f.h.Alloc(f.rec, 0)
		if err != nil {
			t.Fatal(err)
		}
		devCtrs := func() [3]uint64 {
			s := tel.Snapshot()
			return [3]uint64{devCtr(s, 2), devCtr(s, 3), s.Counters[telemetry.DevCounter(nvm.SubRefstore, 1).Name()]}
		}
		v0, s0, c0 := f.a.view.Stats(), f.a.Stats(), devCtrs()
		f.a.StoreRef(rec, layout.FieldOff(0), last, false)
		v, s, c := f.a.view.Stats().Sub(v0), f.a.Stats(), devCtrs()
		if v.FlushedLines != 1 || v.Fences != 1 || v.Writes != 1 {
			t.Fatalf("settling store: %+v, want 1 write / 1 line / 1 fence", v)
		}
		if s.FlushedLines-s0.FlushedLines != 1 || s.Fences-s0.Fences != 1 || c != [3]uint64{c0[0] + 1, c0[1] + 1, c0[2] + 1} {
			t.Fatalf("settling store charged stats %d lines / %d fences, dev.alloc lines/fences + dev.refstore.writes %v → %v",
				s.FlushedLines-s0.FlushedLines, s.Fences-s0.Fences, c0, c)
		}

		// A flush covering the next one's header settles it at no line of
		// its own — a store naming it then flushes nothing — and the two
		// counters show the deferral and the cover.
		ctr := func(name string) uint64 { return tel.Snapshot().Counters[name] }
		d0, k0 := ctr("alloc.headers_deferred"), ctr("alloc.headers_flush_covered")
		box, err := f.a.Alloc(f.box, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.a.FlushRange(box, 0, f.box.SizeOf(0))
		v0 = f.a.view.Stats()
		f.a.StoreRef(rec, layout.FieldOff(0), box, false)
		if v := f.a.view.Stats().Sub(v0); v.FlushedLines != 0 || v.Fences != 0 {
			t.Fatalf("store naming a flushed object: %+v, want no flush", v)
		}
		if d, k := ctr("alloc.headers_deferred")-d0, ctr("alloc.headers_flush_covered")-k0; d != 1 || k != 1 {
			t.Fatalf("alloc.headers_deferred / alloc.headers_flush_covered moved by %d / %d, want 1 / 1", d, k)
		}
	}
	step("AllocInit", f.a, func() error { _, err := f.newRec(); return err })
	if v := step("pair", f.a, func() error { _, _, err := f.pair(); return err }); v.Fences != 1 {
		t.Fatalf("bump pair: %d fences, want 1", v.Fences)
	}
	step("humongous", f.a, func() error { _, err := f.newBig(); return err })

	// A barriered reference store inside init (core's PNewImage) is a
	// reference store — counted — whose device ops are the allocation's:
	// charged once, to dev.alloc.*, like the rest of the init.
	refstore := func() [2]uint64 {
		c := tel.Snapshot().Counters
		return [2]uint64{c["refstore.stores"], c[telemetry.DevCounter(nvm.SubRefstore, 1).Name()]}
	}
	r0 := refstore()
	step("AllocInit with a barriered store", f.a, func() error {
		_, err := f.a.AllocInit(f.rec, 0, func(r layout.Ref) { f.a.StoreRef(r, layout.FieldOff(0), 0, false) })
		return err
	})
	if r := refstore(); r != [2]uint64{r0[0] + 1, r0[1]} {
		t.Fatalf("barriered store inside init: refstore.stores / dev.refstore.writes went %v → %v, want +1 / +0", r0, r)
	}

	// Hole paths on a second fixture-style PLAB of the same heap.
	f.digHole(t, 192, 384)
	step("hole Alloc", f.a, func() error { _, err := f.a.Alloc(f.box, 0); return err })
	step("hole AllocInit", f.a, func() error { _, err := f.newRec(); return err })
	step("hole pair", f.a, func() error { _, _, err := f.pair(); return err })
	f.h.ResetFreeHoles()
	f.a.holeCur, f.a.holeEnd = 0, 0

	// Retire: the next rec does not fit, the PLAB's tail is plugged and
	// its top sealed inside the allocation that asked.
	f.fillPLAB(t, 48)
	if v := step("retire + refill", f.a, func() error { _, err := f.newRec(); return err }); v.Fences != 3 {
		t.Fatalf("retire + refill + alloc: %d fences, want 3 (filler, top, object)", v.Fences)
	}

	// Handoff: a released partial PLAB is taken over mid-line, so the new
	// owner plugs the sliver (filler + top) before its first object — which,
	// first in the PLAB, persists its header at once.
	if _, err := f.a.Alloc(f.box, 0); err != nil {
		t.Fatal(err)
	}
	f.a.Release()
	next := f.h.NewAllocator()
	defer next.Release()
	if v := step("handoff plug", next, func() error { _, err := next.Alloc(f.box, 0); return err }); v.Fences != 3 {
		t.Fatalf("handoff plug + alloc: %d fences, want 3 (filler, top, object)", v.Fences)
	}
}
