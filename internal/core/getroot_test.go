package core

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// TestMutatorGetRootCostsOneOwnRead: a repeated GetRoot through a mutator
// is one device read, counted in the mutator's own view with nothing in
// the device's shared counters, and allocates nothing — on its own and
// inside Do.
func TestMutatorGetRootCostsOneOwnRead(t *testing.T) {
	rt := newRT(t, Config{NVMMode: nvm.Direct})
	h, err := rt.CreateHeap("roots", 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	ref, err := m.PNew(personKlass(t, rt), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRoot("dir", ref); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.GetRoot("dir"); !ok || got != ref {
		t.Fatalf("GetRoot = %#x, %v", uint64(got), ok)
	}

	dev0, own0 := h.Device().Stats(), m.alloc.Ops()
	if got, ok := m.GetRoot("dir"); !ok || got != ref {
		t.Fatalf("GetRoot = %#x, %v", uint64(got), ok)
	}
	own := m.alloc.Ops().Sub(own0)
	if want := (nvm.Ops{Reads: 1}); own != want {
		t.Fatalf("repeated GetRoot counted %+v in the mutator's view, want %+v", own, want)
	}
	if dev := opsOf(h.Device().Stats().Sub(dev0)); dev != (devOps{reads: 1}) {
		t.Fatalf("repeated GetRoot cost the device %+v: the shared counters moved", dev)
	}

	lookup := func() {
		if got, _ := m.GetRoot("dir"); got != ref {
			t.Fatalf("GetRoot = %#x", uint64(got))
		}
	}
	if n := testing.AllocsPerRun(100, lookup); n != 0 {
		t.Errorf("GetRoot allocates %.1f per call", n)
	}
	m.Do(func() {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("GetRoot inside Do allocates %.1f per call", n)
		}
	})
}

// TestRemsetOverflowCycleAllocatesNothing: after one warm-up, a cycle of
// 512 NVM→NVM reference stores through a mutator allocates nothing and
// leaves the remembered set empty: a store of a persistent value owes the
// set nothing.
func TestRemsetOverflowCycleAllocatesNothing(t *testing.T) {
	rt := newRT(t, Config{NVMMode: nvm.Direct})
	if _, err := rt.CreateHeap("remset", 0); err != nil {
		t.Fatal(err)
	}
	node, err := rt.Reg.Define(klass.MustInstance("remset/Node", nil,
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "remset/Node"}))
	if err != nil {
		t.Fatal(err)
	}
	nextF := rt.MustResolveField(node, "next")
	m, err := rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	var objs [4]layout.Ref
	for i := range objs {
		if objs[i], err = m.PNew(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	const stores = 512
	cycle := func() {
		for i := 0; i < stores; i++ {
			if err := m.SetRefFast(objs[i%len(objs)], nextF, objs[(i+1)%len(objs)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("a cycle of %d stores allocates %.1f", stores, n)
	}
	if slots := rt.NVMToVolSlots(); len(slots) != 0 {
		t.Fatalf("NVM→NVM stores left %d slots in the remembered set", len(slots))
	}
}
