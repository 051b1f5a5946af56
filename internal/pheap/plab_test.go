package pheap

import (
	"fmt"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// PLAB allocator tests: parallel-allocation stress (the race job's
// dedicated target), crash injection across region handoff and retire,
// and the reload rules for half-open regions.

// TestParallelAllocStress is the dedicated -race stress test: several
// mutators bump-allocate concurrently through their own Allocators while
// the shared Alloc path runs alongside, then the heap must parse and
// contain exactly the allocated objects.
func TestParallelAllocStress(t *testing.T) {
	const goroutines = 8
	const perG = 400
	h, reg := testHeap(t, Config{DataSize: 32 << 20})
	p := definePerson(t, reg)
	bytes := reg.PrimArray(layout.FTByte)
	// Warm the klass segment so mutators race only on the fast paths.
	warm1, err := h.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := h.Alloc(bytes, 8)
	if err != nil {
		t.Fatal(err)
	}

	refs := make([][]layout.Ref, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var (
				ref layout.Ref
				err error
			)
			if g%4 == 3 {
				// One lane exercises the shared (default-allocator) path
				// concurrently with the PLAB lanes.
				for i := 0; i < perG; i++ {
					if ref, err = h.Alloc(p, 0); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					refs[g] = append(refs[g], ref)
				}
				return
			}
			a := h.NewAllocator()
			defer a.Release()
			for i := 0; i < perG; i++ {
				if i%3 == 0 {
					ref, err = a.Alloc(bytes, 64+i%128)
				} else {
					ref, err = a.Alloc(p, 0)
					if err == nil {
						h.SetWord(ref, layout.FieldOff(0), uint64(g)<<32|uint64(i))
					}
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				refs[g] = append(refs[g], ref)
			}
		}(g)
	}
	wg.Wait()

	allocated := map[layout.Ref]bool{warm1: true, warm2: true}
	for _, rs := range refs {
		for _, r := range rs {
			if allocated[r] {
				t.Fatalf("duplicate ref %#x", uint64(r))
			}
			allocated[r] = true
		}
	}
	seen := 0
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			return true
		}
		if !allocated[h.AddrOf(off)] {
			t.Fatalf("parsed unallocated object %s at %d", k.Name, off)
		}
		seen++
		return true
	}); err != nil {
		t.Fatalf("parallel heap does not parse: %v", err)
	}
	if want := goroutines*perG + 2; seen != want {
		t.Fatalf("parsed %d objects, want %d", seen, want)
	}
}

// TestPLABCrashAtEveryFlushDuringHandoff drives the flush-hook crash
// injector through PLAB region overflow and handoff: one mutator
// allocates objects sized so each region fits only a few, forcing
// retire-plug-redispense cycles; crashing at every flush boundary must
// leave an image whose regions parse — up to their persisted tops and
// through what the reload recovers above them — exposing only fully
// allocated objects (plus at most the one in-flight allocation whose
// persist was the crash point).
func TestPLABCrashAtEveryFlushDuringHandoff(t *testing.T) {
	// 65 long fields → 544 bytes: does not divide the region size, so
	// every region ends in a retire filler.
	bigFields := manyFields(65)
	for crashAt := uint64(2); crashAt < 90; crashAt += 3 {
		h, reg := testHeap(t, Config{DataSize: 1 << 20})
		big, err := reg.Define(klass.MustInstance("Big", nil, bigFields...))
		if err != nil {
			t.Fatal(err)
		}
		a := h.NewAllocator()
		var recorded []layout.Ref
		faultdev.CrashIn(h.Device(), crashAt)
		if _, err := faultdev.Run(h.Device(), func() error {
			for i := 0; i < 3*layout.RegionSize/big.SizeOf(0); i++ {
				ref, err := a.Alloc(big, 0)
				if err != nil {
					return nil
				}
				recorded = append(recorded, ref)
			}
			return nil
		}); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}

		img := h.Device().CrashImage(nvm.CrashRandomEviction, int64(crashAt))
		re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatalf("crashAt=%d: load: %v", crashAt, err)
		}
		surviving := make(map[layout.Ref]bool)
		if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if IsFiller(k) {
				return true
			}
			if k.Name != "Big" {
				t.Fatalf("crashAt=%d: unexpected klass %s at %d", crashAt, k.Name, off)
			}
			surviving[re.AddrOf(off)] = true
			return true
		}); err != nil {
			t.Fatalf("crashAt=%d: crash image does not parse: %v", crashAt, err)
		}
		// Every allocation that returned before the crash had its object
		// flushed and fenced, so it must survive; the walk may additionally
		// surface the single in-flight allocation.
		for _, ref := range recorded {
			if !surviving[ref] {
				t.Fatalf("crashAt=%d: returned object %#x lost", crashAt, uint64(ref))
			}
		}
		if len(surviving) > len(recorded)+1 {
			t.Fatalf("crashAt=%d: %d objects parsed, only %d allocated",
				crashAt, len(surviving), len(recorded))
		}
	}
}

// TestReloadRecoversAbovePersistedRegionTop pins the recovery rule: the
// bump path never writes the region top, so after two allocations, each
// flushed by its caller, the persisted word still reads "opened, empty" —
// and a reload finds both objects by parsing forward from it, plus a third
// whose flush had written back when the crash cut its fence off (the call
// never returned; accepting it is allowed, requiring it is not).
func TestReloadRecoversAbovePersistedRegionTop(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	a := h.NewAllocator()
	var returned []layout.Ref
	for i := 0; i < 2; i++ {
		ref, err := a.Alloc(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.FlushRange(ref, 0, p.SizeOf(0))
		returned = append(returned, ref)
	}
	start := h.Geo().DataOff
	if got := int(h.Device().ReadU64(h.RegionTopMetaOff(0))); got != start {
		t.Fatalf("persisted top of the open PLAB = %d, want the opened mark %d", got, start)
	}
	if got, want := h.RegionTop(0), start+2*p.SizeOf(0); got != want {
		t.Fatalf("volatile top = %d, want %d", got, want)
	}
	// Crash on the flush of a third object, ahead of its fence.
	faultdev.CrashIn(h.Device(), 1)
	if _, err := faultdev.Run(h.Device(), func() error {
		ref, err := a.Alloc(p, 0)
		if err == nil {
			a.FlushRange(ref, 0, p.SizeOf(0))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.RecoveredRegions(); len(got) != 1 || got[0].Top != start || got[0].Frontier != start+3*p.SizeOf(0) {
		t.Fatalf("recovered regions = %+v, want region 0 parsed from %d over three objects", got, start)
	}
	var found []layout.Ref
	if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if !IsFiller(k) {
			found = append(found, re.AddrOf(off))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(found) != 3 || found[0] != returned[0] || found[1] != returned[1] {
		t.Fatalf("reload parsed %v, want the two returned objects %v and the flushed third", found, returned)
	}
}

// TestReloadPlugsHalfOpenPLAB: loading a clean image seals every
// half-open PLAB region — the tail above the persisted top becomes a
// filler and the region's top moves to its end, so the reloaded heap
// parses whole regions and fresh allocation starts elsewhere.
func TestReloadPlugsHalfOpenPLAB(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	a := h.NewAllocator()
	var refs []layout.Ref
	for i := 0; i < 10; i++ {
		ref, err := a.Alloc(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	// A root names the last object; each earlier one was settled by the
	// allocation after it.
	if err := h.SetRoot("last", refs[len(refs)-1]); err != nil {
		t.Fatal(err)
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	geo := re.Geo()
	if got := re.RegionTop(0); got != geo.DataOff+layout.RegionSize {
		t.Fatalf("half-open region not sealed: top = %d", got)
	}
	objs, fillers := 0, 0
	if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			fillers++
		} else {
			objs++
		}
		return true
	}); err != nil {
		t.Fatalf("sealed region does not parse: %v", err)
	}
	if objs != len(refs) || fillers == 0 {
		t.Fatalf("objs=%d (want %d), fillers=%d (want ≥1)", objs, len(refs), fillers)
	}
	// The plug itself must be durable: crash the reloaded image again
	// without any further flushes and it must still parse.
	img2 := re.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re2, err := Load(nvm.FromImage(img2, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := re2.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("replug image does not parse: %v", err)
	}
	// New allocation lands above the sealed region, never inside it.
	a2 := re.NewAllocator()
	ref, err := a2.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if off := re.OffOf(ref); off < geo.DataOff+layout.RegionSize {
		t.Fatalf("post-reload allocation at %d, inside the sealed region", off)
	}
}

// TestReleaseHandsPartialRegionToNextAllocator: a released allocator's
// PLAB headroom is reusable — the next allocator resumes bumping in the
// same region at the next cache-line boundary, with the handoff sliver
// plugged so the region still parses and the new owner never writes a
// line the old owner's objects occupy.
func TestReleaseHandsPartialRegionToNextAllocator(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	a := h.NewAllocator()
	ref1, err := a.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	b := h.NewAllocator()
	ref2, err := b.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	end1 := h.OffOf(ref1) + p.SizeOf(0)
	wantOff := (end1 + layout.LineSize - 1) &^ (layout.LineSize - 1)
	if h.OffOf(ref2) != wantOff {
		t.Fatalf("second allocator at %d, want line-padded handoff at %d", h.OffOf(ref2), wantOff)
	}
	if h.OffOf(ref2)/layout.RegionSize != h.OffOf(ref1)/layout.RegionSize {
		t.Fatal("handoff left the region instead of reusing it")
	}
	objs, fillers := 0, 0
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			fillers++
		} else {
			objs++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if objs != 2 || fillers != 1 {
		t.Fatalf("objs=%d fillers=%d, want 2 objects and the handoff filler", objs, fillers)
	}
}

// TestHumongousRegionTopEncoding: a humongous run publishes its head
// region's top at the run end and sentinels its interior regions; the
// walk crosses the run and reload preserves it, interleaved with PLAB
// objects.
func TestHumongousRegionTopEncoding(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 4 << 20})
	p := definePerson(t, reg)
	a := h.NewAllocator()
	small1, err := a.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	hugeLen := (layout.RegionSize + layout.RegionSize/2) / 8 // spans 2 regions
	huge, err := a.Alloc(reg.PrimArray(layout.FTLong), hugeLen)
	if err != nil {
		t.Fatal(err)
	}
	small2, err := a.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The last object is named (the others were settled by the allocation
	// after each), so the reload below must find it too.
	if err := h.SetRoot("small2", small2); err != nil {
		t.Fatal(err)
	}
	hugeOff := h.OffOf(huge)
	if hugeOff%layout.RegionSize != 0 {
		t.Fatalf("humongous object not region aligned: %d", hugeOff)
	}
	r0 := (hugeOff - h.Geo().DataOff) / layout.RegionSize
	runEnd := hugeOff + 2*layout.RegionSize
	if got := h.RegionTop(r0); got != runEnd {
		t.Fatalf("head region top = %d, want run end %d", got, runEnd)
	}
	if got := h.RegionTop(r0 + 1); got != regionTopHumongousCont {
		t.Fatalf("interior region top = %d, want sentinel", got)
	}

	for _, heap := range []*Heap{h, reload(t, h)} {
		var got []layout.Ref
		if err := heap.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if !IsFiller(k) {
				got = append(got, heap.AddrOf(off))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := []layout.Ref{small1, huge, small2}
		if len(got) != len(want) {
			t.Fatalf("parsed %d objects, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("object %d = %#x, want %#x", i, uint64(got[i]), uint64(want[i]))
			}
		}
	}
}

func reload(t *testing.T, h *Heap) *Heap {
	t.Helper()
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestPLABOverflowSealsRegion: when a PLAB cannot fit the next object,
// the region is plugged and sealed before the allocation continues in a
// fresh region — verified by parsing and by the sealed top.
func TestPLABOverflowSealsRegion(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	big, err := reg.Define(klass.MustInstance("Big2", nil, manyFields(65)...))
	if err != nil {
		t.Fatal(err)
	}
	a := h.NewAllocator()
	perRegion := layout.RegionSize / big.SizeOf(0)
	for i := 0; i < perRegion+1; i++ {
		if _, err := a.Alloc(big, 0); err != nil {
			t.Fatal(err)
		}
	}
	geo := h.Geo()
	if got := h.RegionTop(0); got != geo.DataOff+layout.RegionSize {
		t.Fatalf("overflowed region top = %d, want sealed at %d", got, geo.DataOff+layout.RegionSize)
	}
	fillers := 0
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			fillers++
			if off/layout.RegionSize != (off+size-1)/layout.RegionSize {
				t.Fatalf("filler at %d size %d straddles regions", off, size)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fillers == 0 {
		t.Fatal("no retire filler found")
	}
}

// TestDispenserOOMAcrossAllocators: capacity exhaustion is reported as
// ErrOutOfMemory no matter which allocator hits it.
func TestDispenserOOMAcrossAllocators(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: layout.RegionSize}) // 1 region + scratch
	p := definePerson(t, reg)
	a, b := h.NewAllocator(), h.NewAllocator()
	var err error
	for i := 0; ; i++ {
		alloc := a
		if i%2 == 1 {
			alloc = b
		}
		if _, err = alloc.Alloc(p, 0); err != nil {
			break
		}
		if i > 1<<20 {
			t.Fatal("allocation never failed")
		}
	}
	if err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestCrashDuringLoadPlug: crashing while Load seals a half-open region
// leaves an image that still loads and parses — the plug is idempotent.
func TestCrashDuringLoadPlug(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	a := h.NewAllocator()
	var last layout.Ref
	for i := 0; i < 5; i++ {
		var err error
		if last, err = a.Alloc(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.SetRoot("last", last); err != nil { // settles the fifth header
		t.Fatal(err)
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	for crashAt := uint64(1); crashAt <= 2; crashAt++ {
		dev := nvm.FromImage(append([]byte(nil), img...), nvm.Config{Mode: nvm.Tracked})
		faultdev.CrashIn(dev, crashAt)
		if _, err := faultdev.Run(dev, func() error {
			_, _ = Load(dev, klass.NewRegistry())
			return nil
		}); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		img2 := dev.CrashImage(nvm.CrashRandomEviction, int64(crashAt))
		re, err := Load(nvm.FromImage(img2, nvm.Config{}), klass.NewRegistry())
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		objs := 0
		if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if !IsFiller(k) {
				objs++
			}
			return true
		}); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		if objs != 5 {
			t.Fatalf("crashAt=%d: %d objects, want 5", crashAt, objs)
		}
	}
}

func TestAllocatorStatsCount(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	a := h.NewAllocator()
	for i := 0; i < 10; i++ {
		if _, err := a.Alloc(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Stats()
	if s.Allocs != 10 || s.Dispenses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// One fence and one line per bump allocation but the last (the first
	// persists its header at once, each later one settles the header the
	// one before it deferred), and the one line of the dispensed region's
	// opened mark, under the first object's fence.
	if s.Fences != 9 {
		t.Fatalf("fences = %d, want 9", s.Fences)
	}
	if s.FlushedLines != 10 {
		t.Fatalf("flushed lines = %d, want 10", s.FlushedLines)
	}
	// Release settles the last header, and books it here too.
	a.Release()
	if s := a.Stats(); s.Fences != 10 || s.FlushedLines != 11 {
		t.Fatalf("after Release: %d lines / %d fences, want 11 / 10", s.FlushedLines, s.Fences)
	}
	_ = fmt.Sprintf("%v", s)
}
