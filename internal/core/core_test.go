package core

import (
	"errors"
	"path/filepath"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/vheap"
)

func newRT(t testing.TB, cfg Config) *Runtime {
	t.Helper()
	if cfg.PJHDataSize == 0 {
		cfg.PJHDataSize = 4 << 20
	}
	if cfg.NVMMode == 0 {
		cfg.NVMMode = nvm.Tracked
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func personKlass(t testing.TB, rt *Runtime) *klass.Klass {
	t.Helper()
	k, err := rt.Reg.Define(klass.MustInstance("Person", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "name", Type: layout.FTRef, RefKlass: StringKlassName},
	))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestFigure11Workflow walks the paper's Figure 11 example: check, create
// or load a heap, allocate with pnew, set a root, and find it again.
func TestFigure11Workflow(t *testing.T) {
	rt := newRT(t, Config{})
	if rt.ExistsHeap("Jimmy") {
		t.Fatal("heap should not exist yet")
	}
	if _, err := rt.CreateHeap("Jimmy", 1<<20); err != nil {
		t.Fatal(err)
	}
	p := personKlass(t, rt)
	ref, err := rt.PNew(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	name, err := rt.NewString("Jimmy Woo", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetLong(ref, "id", 1001); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRef(ref, "name", name); err != nil {
		t.Fatal(err)
	}
	if err := rt.FlushObject(ref); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("Jimmy_info", ref); err != nil {
		t.Fatal(err)
	}

	got, ok := rt.GetRoot("Jimmy_info")
	if !ok || got != ref {
		t.Fatalf("GetRoot = %#x %v", uint64(got), ok)
	}
	id, _ := rt.GetLong(got, "id")
	nref, _ := rt.GetRef(got, "name")
	s, err := rt.GetString(nref)
	if err != nil || id != 1001 || s != "Jimmy Woo" {
		t.Fatalf("round trip: id=%d name=%q err=%v", id, s, err)
	}
}

func TestHeapSurvivesSimulatedReboot(t *testing.T) {
	dir := t.TempDir()
	rt := newRT(t, Config{HeapDir: dir})
	if _, err := rt.CreateHeap("store", 1<<20); err != nil {
		t.Fatal(err)
	}
	p := personKlass(t, rt)
	ref, _ := rt.PNew(p, 0)
	rt.SetLong(ref, "id", 7)
	name, _ := rt.NewString("persisted", true)
	rt.SetRef(ref, "name", name)
	rt.FlushObject(ref)
	rt.SetRoot("who", ref)
	if err := rt.SyncHeap("store"); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "*.pjh")); err != nil {
		t.Fatal(err)
	}

	// New process: fresh runtime, fresh registry — classes come back from
	// the Klass segment.
	rt2 := newRT(t, Config{HeapDir: dir})
	if !rt2.ExistsHeap("store") {
		t.Fatal("heap lost across reboot")
	}
	if _, err := rt2.LoadHeap("store"); err != nil {
		t.Fatal(err)
	}
	got, ok := rt2.GetRoot("who")
	if !ok {
		t.Fatal("root lost across reboot")
	}
	id, err := rt2.GetLong(got, "id")
	if err != nil || id != 7 {
		t.Fatalf("id = %d err=%v", id, err)
	}
	nref, _ := rt2.GetRef(got, "name")
	if s, _ := rt2.GetString(nref); s != "persisted" {
		t.Fatalf("name = %q", s)
	}
}

// TestFigure10AliasKlass reproduces the paper's Figure 10: under the
// stock JVM's strict check, mixing new and pnew of the same class makes a
// redundant cast throw; with alias Klasses it succeeds.
func TestFigure10AliasKlass(t *testing.T) {
	t.Run("strict check throws", func(t *testing.T) {
		rt := newRT(t, Config{StrictCast: true})
		rt.CreateHeap("h", 1<<20)
		p := personKlass(t, rt)
		a, err := rt.New(p, 0) // Person a = new Person(...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PNew(p, 0); err != nil { // Person b = pnew Person(...)
			t.Fatal(err)
		}
		err = rt.CheckCast(a, "Person") // somefunc((Person) a)
		var cce *ClassCastError
		if !errors.As(err, &cce) {
			t.Fatalf("expected ClassCastException, got %v", err)
		}
	})
	t.Run("alias check succeeds", func(t *testing.T) {
		rt := newRT(t, Config{})
		rt.CreateHeap("h", 1<<20)
		p := personKlass(t, rt)
		a, _ := rt.New(p, 0)
		b, _ := rt.PNew(p, 0)
		if err := rt.CheckCast(a, "Person"); err != nil {
			t.Fatalf("alias cast of DRAM instance failed: %v", err)
		}
		if err := rt.CheckCast(b, "Person"); err != nil {
			t.Fatalf("alias cast of NVM instance failed: %v", err)
		}
	})
}

func TestCheckCastSubclassAndMismatch(t *testing.T) {
	rt := newRT(t, Config{})
	rt.CreateHeap("h", 1<<20)
	p := personKlass(t, rt)
	e, _ := rt.Reg.Define(klass.MustInstance("Employee", p,
		klass.Field{Name: "salary", Type: layout.FTLong}))
	emp, _ := rt.PNew(e, 0)
	if err := rt.CheckCast(emp, "Person"); err != nil {
		t.Fatalf("upcast failed: %v", err)
	}
	per, _ := rt.PNew(p, 0)
	if err := rt.CheckCast(per, "Employee"); err == nil {
		t.Fatal("downcast of a Person to Employee should fail")
	}
	ok, err := rt.InstanceOf(emp, "Person")
	if err != nil || !ok {
		t.Fatalf("InstanceOf = %v %v", ok, err)
	}
}

func TestMixedGraphAndVolatileGC(t *testing.T) {
	// A persistent object holding the only reference to a volatile one:
	// the NVM remembered set must keep the volatile object alive and the
	// NVM slot must be patched when the scavenger moves it.
	rt := newRT(t, Config{})
	rt.CreateHeap("h", 1<<20)
	p := personKlass(t, rt)
	pobj, _ := rt.PNew(p, 0)
	vname, _ := rt.NewString("volatile value", false)
	if err := rt.SetRef(pobj, "name", vname); err != nil {
		t.Fatal(err)
	}
	if len(rt.NVMToVolSlots()) != 1 {
		t.Fatalf("remset = %v", rt.NVMToVolSlots())
	}
	if err := rt.MinorGC(); err != nil {
		t.Fatal(err)
	}
	got, _ := rt.GetRef(pobj, "name")
	if got == vname {
		t.Fatal("volatile object did not move (scavenge should have copied it)")
	}
	if s, err := rt.GetString(got); err != nil || s != "volatile value" {
		t.Fatalf("string after scavenge: %q %v", s, err)
	}
}

func TestPersistentGCWithDRAMRoots(t *testing.T) {
	// A volatile object holding the only reference to a persistent one:
	// the DRAM scan must treat it as a root and get patched on compaction.
	rt := newRT(t, Config{})
	rt.CreateHeap("h", 2<<20)
	p := personKlass(t, rt)
	holder, _ := rt.Reg.Define(klass.MustInstance("Holder", nil,
		klass.Field{Name: "target", Type: layout.FTRef}))
	// Garbage first so the live object moves.
	for i := 0; i < 200; i++ {
		rt.PNew(p, 0)
	}
	pobj, _ := rt.PNew(p, 0)
	rt.SetLong(pobj, "id", 31337)
	rt.FlushObject(pobj)
	vobj, _ := rt.New(holder, 0)
	rt.SetRef(vobj, "target", pobj)
	hv := rt.NewHandle(vobj)

	res, err := rt.PersistentGC("h")
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 1 {
		t.Fatalf("live = %d, want 1 (DRAM-rooted)", res.LiveObjects)
	}
	newTarget, _ := rt.GetRef(rt.Get(hv), "target")
	if newTarget == pobj {
		t.Fatal("DRAM slot not patched after compaction")
	}
	if id, _ := rt.GetLong(newTarget, "id"); id != 31337 {
		t.Fatalf("payload lost: %d", id)
	}
}

func TestHandlesSurviveVolatileGC(t *testing.T) {
	rt := newRT(t, Config{Volatile: vheap.Config{EdenSize: 64 << 10, SurvivorSize: 16 << 10}})
	p := personKlass(t, rt)
	obj, _ := rt.New(p, 0)
	rt.SetLong(obj, "id", 555)
	h := rt.NewHandle(obj)
	// Churn until scavenges happen.
	for i := 0; i < 5000; i++ {
		if _, err := rt.New(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Volatile().MinorGCs == 0 {
		t.Fatal("expected at least one scavenge")
	}
	if id, _ := rt.GetLong(rt.Get(h), "id"); id != 555 {
		t.Fatalf("handle referent corrupted: %d", id)
	}
	rt.Release(h)
}

func TestZeroingSafetyOnLoad(t *testing.T) {
	dir := t.TempDir()
	rt := newRT(t, Config{HeapDir: dir, Safety: Zeroing})
	rt.CreateHeap("z", 1<<20)
	p := personKlass(t, rt)
	pobj, _ := rt.PNew(p, 0)
	vstr, _ := rt.NewString("dram", false)
	rt.SetRef(pobj, "name", vstr) // NVM → DRAM pointer
	rt.SetLong(pobj, "id", 9)
	rt.FlushObject(pobj)
	rt.SetRoot("r", pobj)
	rt.SyncHeap("z")

	rt2 := newRT(t, Config{HeapDir: dir, Safety: Zeroing})
	if _, err := rt2.LoadHeap("z"); err != nil {
		t.Fatal(err)
	}
	got, _ := rt2.GetRoot("r")
	nref, err := rt2.GetRef(got, "name")
	if err != nil {
		t.Fatal(err)
	}
	if nref != layout.NullRef {
		t.Fatalf("stale DRAM pointer survived zeroing load: %#x", uint64(nref))
	}
	if id, _ := rt2.GetLong(got, "id"); id != 9 {
		t.Fatalf("primitive field damaged by zeroing scan: %d", id)
	}
}

func TestUserGuaranteedLoadKeepsStalePointer(t *testing.T) {
	dir := t.TempDir()
	rt := newRT(t, Config{HeapDir: dir})
	rt.CreateHeap("ug", 1<<20)
	p := personKlass(t, rt)
	pobj, _ := rt.PNew(p, 0)
	vstr, _ := rt.NewString("dram", false)
	rt.SetRef(pobj, "name", vstr)
	rt.FlushObject(pobj)
	rt.SetRoot("r", pobj)
	rt.SyncHeap("ug")

	rt2 := newRT(t, Config{HeapDir: dir, Safety: UserGuaranteed})
	if _, err := rt2.LoadHeap("ug"); err != nil {
		t.Fatal(err)
	}
	got, _ := rt2.GetRoot("r")
	nref, _ := rt2.GetRef(got, "name")
	if nref == layout.NullRef {
		t.Fatal("user-guaranteed load must not touch pointers")
	}
}

func TestTypeBasedSafetyRejections(t *testing.T) {
	rt := newRT(t, Config{Safety: TypeBased})
	rt.CreateHeap("tb", 1<<20)
	// Unannotated class: pnew must fail.
	plain := klass.MustInstance("Plain", nil, klass.Field{Name: "x", Type: layout.FTLong})
	if _, err := rt.PNew(plain, 0); err == nil {
		t.Fatal("pnew of unannotated class accepted under type-based safety")
	}
	// Annotated class with persistent closure: accepted.
	good := klass.MustInstance("Good", nil,
		klass.Field{Name: "name", Type: layout.FTRef, RefKlass: StringKlassName})
	good.Persistent = true
	gobj, err := rt.PNew(good, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Storing a volatile ref into NVM is rejected.
	vstr, _ := rt.NewString("volatile", false)
	if err := rt.SetRef(gobj, "name", vstr); err == nil {
		t.Fatal("volatile store into NVM accepted under type-based safety")
	}
	pstr, _ := rt.NewString("persistent", true)
	if err := rt.SetRef(gobj, "name", pstr); err != nil {
		t.Fatal(err)
	}
	// Annotated class referencing a non-persistent class: rejected.
	bad := klass.MustInstance("Bad", nil,
		klass.Field{Name: "p", Type: layout.FTRef, RefKlass: "Plain"})
	bad.Persistent = true
	rt.Reg.Define(plain)
	if _, err := rt.PNew(bad, 0); err == nil {
		t.Fatal("non-persistent field closure accepted")
	}
}

func TestFlushAPIs(t *testing.T) {
	rt := newRT(t, Config{})
	rt.CreateHeap("f", 1<<20)
	p := personKlass(t, rt)
	pobj, _ := rt.PNew(p, 0)
	rt.SetLong(pobj, "id", 42)
	if err := rt.FlushField(pobj, "id"); err != nil {
		t.Fatal(err)
	}
	arr, _ := rt.PNew(rt.Reg.PrimArray(layout.FTLong), 10)
	rt.SetLongElem(arr, 3, 99)
	if err := rt.FlushArrayElem(arr, 3); err != nil {
		t.Fatal(err)
	}
	if err := rt.FlushObject(arr); err != nil {
		t.Fatal(err)
	}
	// Flushing a volatile object is an error.
	vobj, _ := rt.New(p, 0)
	if err := rt.FlushField(vobj, "id"); err == nil {
		t.Fatal("flush of volatile object accepted")
	}
	// Transitive flush covers reachable persistent objects.
	other, _ := rt.PNew(p, 0)
	name, _ := rt.NewString("x", true)
	rt.SetRef(other, "name", name)
	rt.SetRef(pobj, "name", name)
	if err := rt.FlushTransitive(pobj); err != nil {
		t.Fatal(err)
	}
}

func TestPNewMultiArray(t *testing.T) {
	rt := newRT(t, Config{})
	rt.CreateHeap("m", 1<<20)
	p := personKlass(t, rt)
	arr, err := rt.PNewMultiArray(p, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rt.ArrayLen(arr) != 3 {
		t.Fatalf("outer len = %d", rt.ArrayLen(arr))
	}
	inner, err := rt.GetElem(arr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ArrayLen(inner) != 2 {
		t.Fatalf("inner len = %d", rt.ArrayLen(inner))
	}
	if !rt.InPersistent(inner) {
		t.Fatal("inner array not persistent")
	}
}

func TestMultipleHeaps(t *testing.T) {
	rt := newRT(t, Config{})
	h1, err := rt.CreateHeap("one", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt.CreateHeap("two", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Base() == h2.Base() {
		t.Fatal("heaps share a base address")
	}
	p := personKlass(t, rt)
	rt.SetActiveHeap("one")
	a, _ := rt.PNew(p, 0)
	rt.SetActiveHeap("two")
	b, _ := rt.PNew(p, 0)
	if !h1.Contains(a) || !h2.Contains(b) {
		t.Fatal("objects landed in the wrong heaps")
	}
	// Cross-heap references are legal (both persistent).
	if err := rt.SetRef(a, "name", b); err != nil {
		t.Fatal(err)
	}
	rt.SetRoot("a", a)
	rt.SetRoot("b", b)
	if _, err := rt.PersistentGC("one"); err != nil {
		t.Fatal(err)
	}
	got, _ := rt.GetRoot("a")
	cross, _ := rt.GetRef(got, "name")
	if cross != b {
		t.Fatalf("cross-heap ref damaged: %#x", uint64(cross))
	}
}

func TestRebaseOnAddressCollision(t *testing.T) {
	// Create two runtimes whose heaps get the same hint, save both, then
	// load both into one runtime: the second must be rebased, with all
	// internal pointers rewritten.
	dirA, dirB := t.TempDir(), t.TempDir()
	mk := func(dir, heap, rootVal string) {
		rt := newRT(t, Config{HeapDir: dir})
		rt.CreateHeap(heap, 1<<20)
		p := personKlass(t, rt)
		obj, _ := rt.PNew(p, 0)
		s, _ := rt.NewString(rootVal, true)
		rt.SetRef(obj, "name", s)
		rt.FlushObject(obj)
		rt.SetRoot("r", obj)
		rt.SyncHeap(heap)
	}
	mk(dirA, "alpha", "from alpha")
	mk(dirB, "beta", "from beta")

	rt := newRT(t, Config{HeapDir: dirA})
	if _, err := rt.LoadHeap("alpha"); err != nil {
		t.Fatal(err)
	}
	// Point the manager at dirB by copying the image in.
	devB, err := nvm.LoadFile(filepath.Join(dirB, "beta.pjh"), nvm.Config{Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.NameManager().Register("beta", devB); err != nil {
		t.Fatal(err)
	}
	hb, err := rt.LoadHeap("beta")
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := rt.Heap("alpha")
	if hb.Base() < ha.Limit() && ha.Base() < hb.Limit() {
		t.Fatal("loaded heaps overlap after rebase")
	}
	got, ok := rt.GetRoot("r") // alpha wins the search order; check both heaps directly
	if !ok {
		t.Fatal("root lost")
	}
	_ = got
	refB, ok := hb.GetRoot("r")
	if !ok {
		t.Fatal("beta root lost after rebase")
	}
	nref, err := rt.GetRef(refB, "name")
	if err != nil {
		t.Fatal(err)
	}
	if s, err := rt.GetString(nref); err != nil || s != "from beta" {
		t.Fatalf("rebased heap contents: %q %v", s, err)
	}
}

func TestGetRootNullAndMissing(t *testing.T) {
	rt := newRT(t, Config{})
	rt.CreateHeap("h", 1<<20)
	if _, ok := rt.GetRoot("nope"); ok {
		t.Fatal("missing root found")
	}
	if err := rt.SetRoot("bad", layout.YoungBase); err == nil {
		t.Fatal("volatile root accepted")
	}
}
