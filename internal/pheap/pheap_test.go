package pheap

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

func testHeap(t testing.TB, cfg Config) (*Heap, *klass.Registry) {
	t.Helper()
	reg := klass.NewRegistry()
	if cfg.DataSize == 0 {
		cfg.DataSize = 4 << 20
	}
	if cfg.Mode == 0 {
		cfg.Mode = nvm.Tracked
	}
	h, err := Create(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, reg
}

func definePerson(t testing.TB, reg *klass.Registry) *klass.Klass {
	t.Helper()
	p, err := reg.Define(klass.MustInstance("Person", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "name", Type: layout.FTRef, RefKlass: "java/lang/String"},
	))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCreateGeometry(t *testing.T) {
	h, _ := testHeap(t, Config{Name: "geo"})
	g := h.Geo()
	if g.DataOff%layout.RegionSize != 0 {
		t.Fatalf("data area not region aligned: %d", g.DataOff)
	}
	if g.DataSize%layout.RegionSize != 0 {
		t.Fatalf("data size not whole regions: %d", g.DataSize)
	}
	if g.ScratchOff != g.DataOff+g.DataSize-layout.RegionSize {
		t.Fatalf("scratch not last region")
	}
	if g.MarkBmpSize < g.DataSize/layout.WordSize/8 {
		t.Fatalf("mark bitmap too small: %d", g.MarkBmpSize)
	}
	if g.RegionTopSize != g.Regions()*layout.RegionTopStride {
		t.Fatalf("region-top table size = %d for %d regions", g.RegionTopSize, g.Regions())
	}
	if g.RegionTopOff%layout.LineSize != 0 {
		t.Fatalf("region-top table not line aligned: %d", g.RegionTopOff)
	}
	if h.Top() != g.DataOff {
		t.Fatalf("fresh top = %d", h.Top())
	}
	for r := 0; r < g.Regions(); r++ {
		if h.RegionTop(r) != 0 {
			t.Fatalf("fresh region %d top = %d", r, h.RegionTop(r))
		}
	}
}

func TestAllocAndAccess(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	ref, err := h.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(ref) {
		t.Fatalf("alloc outside heap: %#x", uint64(ref))
	}
	k, err := h.KlassOf(ref)
	if err != nil || k.Name != "Person" {
		t.Fatalf("KlassOf = %v %v", k, err)
	}
	idOff := layout.FieldOff(0)
	h.SetWord(ref, idOff, 42)
	if got := h.GetWord(ref, idOff); got != 42 {
		t.Fatalf("field = %d", got)
	}
	// Array allocation.
	arr, err := h.Alloc(reg.PrimArray(layout.FTLong), 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.ArrayLen(arr) != 10 {
		t.Fatalf("array len = %d", h.ArrayLen(arr))
	}
}

func TestAllocZeroesBody(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	ref, _ := h.Alloc(p, 0)
	// Scribble, "free" conceptually, then ensure a new allocation elsewhere
	// starts zeroed.
	h.SetWord(ref, layout.FieldOff(0), ^uint64(0))
	ref2, _ := h.Alloc(p, 0)
	if h.GetWord(ref2, layout.FieldOff(0)) != 0 || h.GetWord(ref2, layout.FieldOff(1)) != 0 {
		t.Fatal("new object body not zeroed")
	}
}

func TestHeaderPersistedBeforeTop(t *testing.T) {
	// At every flush boundary during an allocation storm, the crash image
	// must parse below its persisted top.
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	p := definePerson(t, reg)
	for i := 0; i < 50; i++ {
		if _, err := h.Alloc(p, i%7); err != nil {
			t.Fatal(err)
		}
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 1)
	re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatalf("crash image does not parse: %v", err)
	}
	if count == 0 {
		t.Fatal("no objects in reloaded image")
	}
}

func TestParseInvariantUnderRandomCrash(t *testing.T) {
	// Crash after the k-th flush for growing k; the persisted image must
	// always parse and every parsed object must be one we allocated (or a
	// filler).
	for _, crashAt := range []uint64{1, 3, 5, 8, 13, 21, 34, 55, 89} {
		func() {
			h, reg := testHeap(t, Config{DataSize: 1 << 20})
			p := definePerson(t, reg)
			faultdev.CrashAtFlush(h.Device(), crashAt)
			if _, err := faultdev.Run(h.Device(), func() error {
				for i := 0; i < 100; i++ {
					if _, err := h.Alloc(p, 0); err != nil {
						return nil
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("crashAt=%d: %v", crashAt, err)
			}
			img := h.Device().CrashImage(nvm.CrashRandomEviction, int64(crashAt))
			re, err := Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
			if err != nil {
				t.Fatalf("crashAt=%d: load: %v", crashAt, err)
			}
			if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
				if k.Name != "Person" && !IsFiller(k) {
					t.Fatalf("crashAt=%d: unexpected klass %s", crashAt, k.Name)
				}
				return true
			}); err != nil {
				t.Fatalf("crashAt=%d: parse: %v", crashAt, err)
			}
		}()
	}
}

func TestRegionBoundaryFiller(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	// Allocate objects of a size that does not divide the region size so
	// boundary fillers must appear.
	big, _ := reg.Define(klass.MustInstance("Big", nil, manyFields(65)...)) // 544 bytes: does not divide the region size
	sz := big.SizeOf(0)
	n := layout.RegionSize/sz + 2
	for i := 0; i < n; i++ {
		if _, err := h.Alloc(big, 0); err != nil {
			t.Fatal(err)
		}
	}
	fillers, objs := 0, 0
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if IsFiller(k) {
			fillers++
		} else {
			objs++
		}
		// No object may straddle a region boundary.
		if off/layout.RegionSize != (off+size-1)/layout.RegionSize {
			t.Fatalf("object at %d size %d straddles regions", off, size)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if objs != n || fillers == 0 {
		t.Fatalf("objs=%d (want %d) fillers=%d", objs, n, fillers)
	}
}

func manyFields(n int) []klass.Field {
	fs := make([]klass.Field, n)
	for i := range fs {
		fs[i] = klass.Field{Name: fmt.Sprintf("f%d", i), Type: layout.FTLong}
	}
	return fs
}

func TestHumongousAllocation(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 4 << 20})
	p := definePerson(t, reg)
	if _, err := h.Alloc(p, 0); err != nil {
		t.Fatal(err)
	}
	hugeLen := (HugeThreshold + 1000) / 8
	huge, err := h.Alloc(reg.PrimArray(layout.FTLong), hugeLen)
	if err != nil {
		t.Fatal(err)
	}
	off := h.OffOf(huge)
	if off%layout.RegionSize != 0 {
		t.Fatalf("humongous object not region aligned: %d", off)
	}
	if _, err := h.Alloc(p, 0); err != nil {
		t.Fatal(err)
	}
	// The whole heap must still parse.
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfMemory(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: layout.RegionSize}) // 1 region + scratch
	p := definePerson(t, reg)
	var err error
	for i := 0; i < 1<<20; i++ {
		if _, err = h.Alloc(p, 0); err != nil {
			break
		}
	}
	if err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestRootsRoundTrip(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	ref, _ := h.Alloc(p, 0)
	if err := h.SetRoot("jimmy", ref); err != nil {
		t.Fatal(err)
	}
	got, ok := h.GetRoot("jimmy")
	if !ok || got != ref {
		t.Fatalf("GetRoot = %#x %v", uint64(got), ok)
	}
	if _, ok := h.GetRoot("absent"); ok {
		t.Fatal("absent root found")
	}
	// Overwrite.
	ref2, _ := h.Alloc(p, 0)
	if err := h.SetRoot("jimmy", ref2); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.GetRoot("jimmy"); got != ref2 {
		t.Fatal("root not updated")
	}
	roots := h.Roots()
	if len(roots) != 1 || roots[0].Name != "jimmy" || roots[0].Ref != ref2 {
		t.Fatalf("Roots = %+v", roots)
	}
	if !h.RemoveRoot("jimmy") {
		t.Fatal("RemoveRoot failed")
	}
	if _, ok := h.GetRoot("jimmy"); ok {
		t.Fatal("removed root still present")
	}
	// A tombstoned slot is reusable.
	if err := h.SetRoot("jimmy", ref); err != nil {
		t.Fatal(err)
	}
}

func TestSetRootRejectsForeignRef(t *testing.T) {
	h, _ := testHeap(t, Config{})
	if err := h.SetRoot("bad", layout.YoungBase+64); err == nil {
		t.Fatal("expected error for DRAM ref root")
	}
}

func TestRootSurvivesCrashAndReload(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	ref, _ := h.Alloc(p, 0)
	h.SetWord(ref, layout.FieldOff(0), 4242)
	h.FlushRange(ref, 0, p.SizeOf(0))
	if err := h.SetRoot("persist_me", ref); err != nil {
		t.Fatal(err)
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := re.GetRoot("persist_me")
	if !ok || got != ref {
		t.Fatalf("root lost after crash: %#x %v", uint64(got), ok)
	}
	if re.GetWord(got, layout.FieldOff(0)) != 4242 {
		t.Fatal("flushed field lost after crash")
	}
	// Klass re-initialization must have rebuilt Person from its record.
	k, err := re.KlassOf(got)
	if err != nil || k.Name != "Person" || k.NumFields() != 2 {
		t.Fatalf("reinitialized klass = %v %v", k, err)
	}
}

func TestInterruptedSetRootInvisible(t *testing.T) {
	// Crash at each flush boundary inside setRoot of a NEW name: after
	// reboot the root is either fully present or fully absent.
	for crashAt := uint64(1); crashAt <= 6; crashAt++ {
		h, reg := testHeap(t, Config{})
		p := definePerson(t, reg)
		ref, _ := h.Alloc(p, 0)
		faultdev.CrashIn(h.Device(), crashAt)
		if _, err := faultdev.Run(h.Device(), func() error {
			return h.SetRoot("maybe", ref)
		}); err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		img := h.Device().CrashImage(nvm.CrashFlushedOnly, int64(crashAt))
		re, err := Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}
		if got, ok := re.GetRoot("maybe"); ok && got != ref {
			t.Fatalf("crashAt=%d: torn root value %#x", crashAt, uint64(got))
		}
	}
}

func TestKlassEntriesInNameTable(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	if _, err := h.Alloc(p, 0); err != nil {
		t.Fatal(err)
	}
	addr, ok := h.KlassEntry("Person")
	if !ok {
		t.Fatal("klass entry missing")
	}
	k, ok := h.KlassByAddr(addr)
	if !ok || k.Name != "Person" {
		t.Fatalf("klass entry resolves to %v", k)
	}
}

func TestLoadRejectsBadImages(t *testing.T) {
	if _, err := Load(nvm.New(nvm.Config{Size: 64}), klass.NewRegistry()); err == nil {
		t.Fatal("tiny image accepted")
	}
	if _, err := Load(nvm.New(nvm.Config{Size: 1 << 20}), klass.NewRegistry()); err == nil {
		t.Fatal("zero image accepted")
	}
}

func TestReloadWithConflictingKlassFails(t *testing.T) {
	h, reg := testHeap(t, Config{})
	definePerson(t, reg)
	if _, err := h.Alloc(reg.MustLookup("Person"), 0); err != nil {
		t.Fatal(err)
	}
	h.Device().FlushAll()
	img := h.Device().CrashImage(nvm.CrashAllDirty, 0)

	// A registry where "Person" means something else must be rejected.
	reg2 := klass.NewRegistry()
	if _, err := reg2.Define(klass.MustInstance("Person", nil,
		klass.Field{Name: "other", Type: layout.FTInt})); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(nvm.FromImage(img, nvm.Config{}), reg2); err == nil {
		t.Fatal("conflicting klass layout accepted on reload")
	}
}

func TestRedoLogIdempotent(t *testing.T) {
	h, _ := testHeap(t, Config{})
	entries := []RedoEntry{
		{Off: h.RegionTopMetaOff(0), Val: uint64(h.Geo().DataOff + 4096)},
		{Off: h.GCActiveMetaOff(), Val: 0},
	}
	h.RedoCommit(entries)
	if !h.RedoPending() {
		t.Fatal("committed log not pending")
	}
	h.RedoApply()
	h.RefreshAfterRedo()
	if h.RedoPending() {
		t.Fatal("applied log still pending")
	}
	if h.RegionTop(0) != h.Geo().DataOff+4096 {
		t.Fatalf("region top after redo = %d", h.RegionTop(0))
	}
	if h.Top() != h.Geo().DataOff+4096 {
		t.Fatalf("top after redo = %d", h.Top())
	}
}

func TestRedoAppliedOnLoad(t *testing.T) {
	h, _ := testHeap(t, Config{})
	// A sealed region 0 (top at the region end, as the GC's finish batch
	// would publish for a fully occupied region).
	sealed := h.Geo().DataOff + layout.RegionSize
	h.RedoCommit([]RedoEntry{{Off: h.RegionTopMetaOff(0), Val: uint64(sealed)}})
	// Crash after commit, before apply.
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if re.RedoPending() {
		t.Fatal("load left redo log pending")
	}
	if re.Top() != sealed {
		t.Fatalf("redo not applied on load: top=%d", re.Top())
	}
}

func TestZeroingScanNullsForeignRefs(t *testing.T) {
	h, reg := testHeap(t, Config{})
	p := definePerson(t, reg)
	a, _ := h.Alloc(p, 0)
	b, _ := h.Alloc(p, 0)
	nameOff := layout.FieldOff(1)
	h.SetWord(a, nameOff, uint64(b))                    // intra-heap: kept
	h.SetWord(b, nameOff, uint64(layout.YoungBase+128)) // DRAM: nulled
	nulled, err := h.ZeroingScan(h.Contains)
	if err != nil {
		t.Fatal(err)
	}
	if nulled != 1 {
		t.Fatalf("nulled = %d, want 1", nulled)
	}
	if layout.Ref(h.GetWord(a, nameOff)) != b {
		t.Fatal("intra-heap ref was nulled")
	}
	if h.GetWord(b, nameOff) != 0 {
		t.Fatal("DRAM ref survived zeroing scan")
	}
}

func TestBitmapBasics(t *testing.T) {
	h, _ := testHeap(t, Config{})
	bm := h.MarkBitmap()
	for _, i := range []int{0, 1, 63, 64, 65, 1000} {
		bm.Set(i)
	}
	if bm.CountSet() != 6 {
		t.Fatalf("CountSet = %d", bm.CountSet())
	}
	if got := bm.NextSet(2); got != 63 {
		t.Fatalf("NextSet(2) = %d", got)
	}
	if got := bm.NextSet(66); got != 1000 {
		t.Fatalf("NextSet(66) = %d", got)
	}
	if got := bm.NextSet(1001); got != -1 {
		t.Fatalf("NextSet(1001) = %d", got)
	}
	bm.Clear(63)
	if bm.Get(63) {
		t.Fatal("Clear failed")
	}
	bm.ClearAll()
	if bm.CountSet() != 0 {
		t.Fatal("ClearAll failed")
	}
}

func TestQuickBitmapMatchesModel(t *testing.T) {
	h, _ := testHeap(t, Config{})
	bm := h.RegionBitmap()
	f := func(ops []uint16) bool {
		bm.ClearAll()
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op) % bm.Len()
			if op%2 == 0 {
				bm.Set(i)
				model[i] = true
			} else {
				bm.Clear(i)
				delete(model, i)
			}
		}
		for i := 0; i < bm.Len(); i++ {
			if bm.Get(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllocationAlwaysParses(t *testing.T) {
	// Random allocation sequences (mixed shapes and sizes, including
	// occasional humongous arrays) keep the heap parseable, and the parsed
	// object multiset matches what was allocated.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, reg := testHeap(t, Config{DataSize: 2 << 20})
		p := definePerson(t, reg)
		type rec struct {
			ref  layout.Ref
			name string
		}
		var allocated []rec
		for i := 0; i < 200; i++ {
			var ref layout.Ref
			var err error
			var name string
			switch rng.Intn(4) {
			case 0:
				ref, err = h.Alloc(p, 0)
				name = "Person"
			case 1:
				n := rng.Intn(100)
				ref, err = h.Alloc(reg.PrimArray(layout.FTByte), n)
				name = "[byte"
			case 2:
				n := rng.Intn(50)
				ref, err = h.Alloc(reg.ObjArray("Person"), n)
				name = "[LPerson;"
			case 3:
				n := HugeThreshold/8 + rng.Intn(100)
				ref, err = h.Alloc(reg.PrimArray(layout.FTLong), n)
				name = "[long"
			}
			if err != nil {
				break
			}
			allocated = append(allocated, rec{ref, name})
		}
		i := 0
		ok := true
		err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
			if IsFiller(k) {
				return true
			}
			if i >= len(allocated) || h.AddrOf(off) != allocated[i].ref || k.Name != allocated[i].name {
				ok = false
				return false
			}
			i++
			return true
		})
		return err == nil && ok && i == len(allocated)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNameTableFillsUp(t *testing.T) {
	h, _ := testHeap(t, Config{NameTabCap: 8})
	p := definePerson(t, h.Registry())
	ref, _ := h.Alloc(p, 0)
	var err error
	for i := 0; i < 16; i++ {
		if err = h.SetRoot(fmt.Sprintf("root%d", i), ref); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected name-table-full error")
	}
}

// TestLoadRejectsCorruptPhaseWord: a phase word that is not idle is a
// corrupt image, not a silently-misread one.
func TestLoadRejectsCorruptPhaseWord(t *testing.T) {
	reg := klass.NewRegistry()
	h, err := Create(reg, Config{DataSize: 1 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	dev := h.Device()
	dev.WriteU64(mGCPhase, 7)
	dev.FlushAll()
	img := dev.CrashImage(nvm.CrashFlushedOnly, 0)
	if _, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry()); err == nil {
		t.Fatal("corrupt phase word loaded without error")
	}
}
