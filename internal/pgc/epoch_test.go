package pgc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
)

// The collector's side of the one-persist allocation protocol: the epoch
// step of finish, the top persist of PrepareForCollection, and the marker
// against allocators that move only the volatile top.

// slabKlass is a 64-byte node (header + 6 words), so objects tile lines and
// regions exactly and every compacted frontier is an old object boundary.
func slabKlass(reg *klass.Registry) *klass.Klass {
	k, err := reg.Define(klass.MustInstance("Slab", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "Slab"},
		klass.Field{Name: "p0", Type: layout.FTLong}, klass.Field{Name: "p1", Type: layout.FTLong},
		klass.Field{Name: "p2", Type: layout.FTLong}, klass.Field{Name: "p3", Type: layout.FTLong}))
	if err != nil {
		panic(err)
	}
	return k
}

// TestEpochStampedSourcesStayDead is the planted-bug test of finish's
// epoch step. Three full regions of slabs, no spare one:
//
//	region 0   1024 live (the dense prefix), 3072 dead
//	region 1   3072 live, 1024 dead
//	region 2   1024 live
//
// The collection slides region 1's live slabs into region 0's tail,
// recycles the emptied region 1 as the destination of region 2's, and
// ends with its new top a quarter into region 1 — directly below 2048 of
// region 1's own evacuated sources, each stamped with the cycle's
// timestamp and intact. The machine stops before any allocation. On
// reopen the half-open region is parsed forward from the new top and must
// validate nothing: the allocation epoch finish published is one past the
// stamp. The second half plants the bug (the image's timestamp put back to
// the cycle's, checksum and all — what a finish without the epoch step
// leaves) and requires the same reopen to resurrect stamped sources — so
// the first half fails if finish ever keeps globalTS = cur.
func TestEpochStampedSourcesStayDead(t *testing.T) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: 3 * layout.RegionSize, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	slab := slabKlass(reg)
	const perRegion = layout.RegionSize / 64
	const n, nLive = 2*perRegion + 1024, 1024 + 3072 + 1024
	isLive := func(i int) bool {
		return i < 1024 || (i >= perRegion && i < perRegion+3072) || i >= 2*perRegion
	}
	var live layout.Ref
	for i := 0; i < n; i++ {
		r, err := h.Alloc(slab, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWord(r, layout.FieldOff(0), uint64(i))
		if isLive(i) {
			h.SetWord(r, layout.FieldOff(1), uint64(live))
			live = r
		}
	}
	if err := h.SetRoot("live", live); err != nil {
		t.Fatal(err)
	}
	h.Device().Flush(h.Geo().DataOff, h.Top()-h.Geo().DataOff)
	h.Device().Fence()
	res, err := Collect(h, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if want := h.Geo().DataOff + layout.RegionSize + 1024*64; res.LiveObjects != nLive || res.NewTop != want {
		t.Fatalf("collection kept %d slabs below %d; the fixture wants %d below %d", res.LiveObjects, res.NewTop, nLive, want)
	}
	if got := h.UsedBytes(); got != res.NewTop-h.Geo().DataOff {
		t.Fatalf("UsedBytes after the cycle = %d, want NewTop's %d", got, res.NewTop-h.Geo().DataOff)
	}
	// The cycle's stamp, read off an evacuated source: the slab right above
	// the new top, which was allocated under timestamp 1.
	cur := layout.MarkTimestamp(h.Device().ReadU64(res.NewTop + layout.MarkWordOff))
	if cur < 2 {
		t.Fatalf("the bytes at the new top carry timestamp %d: the fixture no longer leaves a stamped source there", cur)
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)

	reopen := func(img []byte) (frontier, slabs int) {
		t.Helper()
		re, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		rec := re.RecoveredRegions()
		if len(rec) != 1 || rec[0].Top != res.NewTop {
			t.Fatalf("reopen recovered %+v, want the one half-open region from NewTop %d", rec, res.NewTop)
		}
		if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if k.Name == "Slab" {
				slabs++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rec[0].Frontier, slabs
	}
	if frontier, slabs := reopen(img); frontier != res.NewTop || slabs != nLive {
		t.Fatalf("reopen after the collection: frontier %d (NewTop %d), %d slabs (live %d): a stamped source was resurrected",
			frontier, res.NewTop, slabs, nLive)
	}

	planted := bytes.Clone(img)
	for _, e := range h.GCStateEntries(cur, false) {
		binary.LittleEndian.PutUint64(planted[e.Off:], e.Val)
	}
	if frontier, slabs := reopen(planted); frontier != res.NewTop+2048*64 || slabs != nLive+2048 {
		t.Fatalf("with the timestamp left at the cycle's stamp the reopen takes %d bytes above the top and finds %d slabs, want the 2048 stamped sources: the test above cannot see the bug it is for",
			frontier-res.NewTop, slabs)
	}
}

// TestCrashRecoverMatchesUncrashedCycleWithOpenPLABs crashes a collection
// of a heap whose PLABs are open — volatile tops ahead of the persisted
// words, the state every collection now starts from — after each of its
// flushes, the ones between PrepareForCollection and the gcActive stamp
// included, and finishes the cycle the way a restart does: Load, RecoverIfNeeded,
// and, when the crash came before the stamp, the collection again. What a
// reader can observe of the result — metadata block, roots, region-top
// table, every object — is byte-identical to the same cycle run without a
// crash. Without PrepareForCollection's top persist
// the images crashed past the stamp carry stale tops, recovery's summary
// stops short of objects the bitmap marked, and this fails.
func TestCrashRecoverMatchesUncrashedCycleWithOpenPLABs(t *testing.T) {
	build := func() (*pheap.Heap, *model) {
		h, reg := newHeap(t, 2<<20)
		buildGarbageBelt(t, h, reg, 150)
		m := buildGraph(t, h, reg, 41, 300, 4)
		// A second open PLAB, its objects rooted.
		a := h.NewAllocator()
		node := nodeKlass(reg)
		var last layout.Ref
		for i := 0; i < 40; i++ {
			r, err := a.AllocInit(node, 0, func(r layout.Ref) {
				a.SetWord(r, layout.FieldOff(fID), uint64(1000+i))
				a.SetWord(r, layout.FieldOff(fNext), uint64(last))
			})
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
		if err := h.SetRoot("open", last); err != nil {
			t.Fatal(err)
		}
		return h, m
	}
	// observable is everything of the image a reader interprets: the
	// metadata block, the name table and arena, the region-top table, and
	// the data heap object by object — a filler's header, every other
	// object whole. (A filler's body is dead space nobody reads; a reload
	// that sealed a region leaves a stale header inside one.)
	observable := func(h *pheap.Heap) []byte {
		// As the next restart finds it: a load seals the half-open region
		// under the new top, which some of the crash paths below have
		// already been through and others have not.
		h, err := pheap.Load(nvm.FromImage(h.Device().CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{}), klass.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		geo, dev := h.Geo(), h.Device()
		var out []byte
		for _, sec := range [][2]int{{0, geo.ArenaOff + geo.ArenaSize}, {geo.RegionTopOff, geo.RegionTopSize}} {
			out = append(out, dev.View(sec[0], sec[1])...)
		}
		if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if pheap.IsFiller(k) {
				size = layout.ArrayHdrBytes
			}
			out = append(out, dev.View(off, size)...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	checkOpen := func(tag string, h *pheap.Heap) {
		t.Helper()
		ref, ok := h.GetRoot("open")
		for i := 39; i >= 0; i-- {
			if !ok || ref == layout.NullRef || h.GetWord(ref, layout.FieldOff(fID)) != uint64(1000+i) {
				t.Fatalf("%s: the open PLAB's chain is broken at node %d", tag, i)
			}
			ref = layout.Ref(h.GetWord(ref, layout.FieldOff(fNext)))
		}
	}

	ref, m := build()
	base := ref.Device().Stats().Flushes
	want, err := Collect(ref, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Device().Stats().Flushes - base
	verifyGraph(t, ref, m)
	checkOpen("uncrashed", ref)
	golden := observable(ref)

	preStamp, postStamp := 0, 0
	for k := uint64(1); k <= total; k++ {
		if k > 40 && k%7 != 0 && k < total-40 {
			continue // every boundary of prepare, stamp and finish; every 7th of the compaction between
		}
		h, _ := build()
		faultdev.CrashIn(h.Device(), k)
		crashed, err := faultdev.Run(h.Device(), func() error {
			_, err := Collect(h, NoRoots{})
			return err
		})
		if err != nil || !crashed {
			t.Fatalf("k=%d: crashed = %v, err = %v", k, crashed, err)
		}
		for _, pol := range []nvm.CrashPolicy{nvm.CrashFlushedOnly, nvm.CrashAllDirty, nvm.CrashRandomEviction} {
			tag := fmt.Sprintf("k=%d policy %d", k, pol)
			re, err := pheap.Load(nvm.FromImage(h.Device().CrashImage(pol, int64(k)), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
			if err != nil {
				t.Fatalf("%s: load: %v", tag, err)
			}
			got := want
			if re.GCActive() {
				postStamp++
				if got, _, err = RecoverIfNeeded(re); err != nil {
					t.Fatalf("%s: recover: %v", tag, err)
				}
			} else if re.GlobalTS() != ref.GlobalTS() { // not a finished cycle's image
				preStamp++
				if got, err = Collect(re, NoRoots{}); err != nil {
					t.Fatalf("%s: collect after a crash before the stamp: %v", tag, err)
				}
			}
			if got.NewTop != want.NewTop || got.LiveObjects != want.LiveObjects {
				t.Fatalf("%s: finished with %d live, top %d; the uncrashed cycle has %d, %d", tag, got.LiveObjects, got.NewTop, want.LiveObjects, want.NewTop)
			}
			verifyGraph(t, re, m)
			checkOpen(tag, re)
			if img := observable(re); !bytes.Equal(img, golden) {
				for i := range img {
					if img[i] != golden[i] {
						t.Fatalf("%s: observable image differs from the uncrashed cycle's at byte %d of %d", tag, i, len(img))
					}
				}
			}
		}
	}
	if preStamp == 0 || postStamp == 0 {
		t.Fatalf("sweep crossed %d images before the stamp and %d after it; it needs both", preStamp, postStamp)
	}
}

// TestEpochCollectionsRaceBumpingAllocators runs collections between
// the operations of two allocators that keep bumping (run it under
// -race): each collection's pause persists the open PLABs' tops and
// reads the volatile tops the bump path moves, and every chain built
// under it survives every cycle.
func TestEpochCollectionsRaceBumpingAllocators(t *testing.T) {
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	node := nodeKlass(reg)
	const mutators, perMutator = 2, 4000
	var world sync.RWMutex // mutators hold the read side around each operation
	var wg sync.WaitGroup
	for g := 0; g < mutators; g++ {
		a := h.NewAllocator()
		name := fmt.Sprintf("chain%d", g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perMutator; i++ {
				world.RLock()
				head, _ := h.GetRoot(name)
				r, err := a.AllocInit(node, 0, func(r layout.Ref) {
					a.SetWord(r, layout.FieldOff(fID), uint64(i))
					a.SetWordAtomic(r, layout.FieldOff(fNext), uint64(head))
				})
				if err == nil {
					err = h.SetRoot(name, r)
				}
				world.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cycles := 0
	for running := true; running; cycles++ {
		select {
		case <-done:
			running = false // one more cycle over the finished chains
		default:
		}
		world.Lock()
		_, err := Collect(h, NoRoots{})
		world.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := 0; g < mutators; g++ {
		ref, _ := h.GetRoot(fmt.Sprintf("chain%d", g))
		for i := perMutator; i >= 1; i-- {
			if ref == layout.NullRef || h.GetWord(ref, layout.FieldOff(fID)) != uint64(i) {
				t.Fatalf("chain %d broken at node %d after %d cycles", g, i, cycles)
			}
			ref = layout.Ref(h.GetWord(ref, layout.FieldOff(fNext)))
		}
	}
}
