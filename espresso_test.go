package espresso_test

import (
	"reflect"
	"testing"

	"espresso"
	"espresso/internal/core"
)

// TestAccessorSurfaceParity: every method of the object-model surface
// (core.Accessor) is callable on the facade's Runtime and on its Mutator,
// by name — the facade's PNew(k) and New(k) keep their shorter signatures.
// internal/core's test of the same name checks signatures and that the
// surface is declared once.
func TestAccessorSurfaceParity(t *testing.T) {
	acc := reflect.TypeOf((*core.Accessor)(nil))
	for _, recv := range []reflect.Type{reflect.TypeOf((*espresso.Runtime)(nil)), reflect.TypeOf((*espresso.Mutator)(nil))} {
		for i := 0; i < acc.NumMethod(); i++ {
			if _, ok := recv.MethodByName(acc.Method(i).Name); !ok {
				t.Errorf("%s lacks %s", recv, acc.Method(i).Name)
			}
		}
	}
}

// TestFacadeRoundTrip exercises the public API end to end: class
// declaration, heap creation, pnew, flush, roots, reload from disk,
// persistent GC.
func TestFacadeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rt, err := espresso.Open(espresso.Options{HeapDir: dir, TrackedNVM: true})
	if err != nil {
		t.Fatal(err)
	}
	person := espresso.MustClass("Person", nil, espresso.Long("id"), espresso.Str("name"))
	if rt.ExistsHeap("Jimmy") {
		t.Fatal("heap should not exist")
	}
	if err := rt.CreateHeap("Jimmy", 1<<20); err != nil {
		t.Fatal(err)
	}
	p, err := rt.PNew(person)
	if err != nil {
		t.Fatal(err)
	}
	name, err := rt.NewString("Jimmy", true)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetLong(p, "id", 1001)
	rt.SetRef(p, "name", name)
	if err := rt.FlushObject(p); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("Jimmy_info", p); err != nil {
		t.Fatal(err)
	}
	if res, err := rt.PersistentGC("Jimmy"); err != nil || res.LiveObjects != 3 {
		// Person + string + the heap's collections are not there: person,
		// name, and the ptx log do not exist here — live = 2 objects.
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.SyncHeap("Jimmy"); err != nil {
		t.Fatal(err)
	}

	rt2, err := espresso.Open(espresso.Options{HeapDir: dir, TrackedNVM: true, Safety: espresso.Zeroing})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadHeap("Jimmy"); err != nil {
		t.Fatal(err)
	}
	got, ok := rt2.GetRoot("Jimmy_info")
	if !ok {
		t.Fatal("root lost")
	}
	if err := rt2.CheckCast(got, "Person"); err != nil {
		t.Fatal(err)
	}
	id, _ := rt2.GetLong(got, "id")
	nref, _ := rt2.GetRef(got, "name")
	s, _ := rt2.GetString(nref)
	if id != 1001 || s != "Jimmy" {
		t.Fatalf("round trip: %d %q", id, s)
	}
}

func TestFacadeArraysAndVolatile(t *testing.T) {
	rt, err := espresso.Open(espresso.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("h", 1<<20); err != nil {
		t.Fatal(err)
	}
	arr, err := rt.PNewLongArray(16)
	if err != nil {
		t.Fatal(err)
	}
	rt.SetLongElem(arr, 3, 99)
	if v, _ := rt.GetLongElem(arr, 3); v != 99 {
		t.Fatalf("elem = %d", v)
	}
	person := espresso.MustClass("VolPerson", nil, espresso.Long("id"))
	v, err := rt.New(person)
	if err != nil {
		t.Fatal(err)
	}
	if rt.InPersistent(v) {
		t.Fatal("new allocated persistently")
	}
	oa, err := rt.PNewArray("VolPerson", 4)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ArrayLen(oa) != 4 {
		t.Fatalf("len = %d", rt.ArrayLen(oa))
	}
}
