package core

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// TestRemsetCrossContextOrder: one slot stored through two different
// contexts (a Runtime-routed store uses the heap's ownerless context, a
// Mutator-routed one its own allocator). The set's readers re-derive
// membership from the slot, so the later store wins whichever context
// made it.
func TestRemsetCrossContextOrder(t *testing.T) {
	rt, err := NewRuntime(Config{PJHDataSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("order", 0); err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("order/Node", nil,
		klass.Field{Name: "ref", Type: layout.FTRef})
	refF := rt.MustResolveField(node, "ref")
	a, err := rt.PNew(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.PNew(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	vol, err := rt.NewString("dram", false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()

	// Every pairing of (who stores last) x (what the last store leaves):
	// a set that trusted the order of its adds and removes over the slot's
	// value would drop a live edge or keep a dead one.
	type store func(layout.Ref, FieldRef, layout.Ref) error
	for _, c := range []struct {
		name          string
		first, second store
	}{
		{"Runtime then Mutator", rt.SetRefFast, m.SetRefFast},
		{"Mutator then Runtime", m.SetRefFast, rt.SetRefFast},
	} {
		if err := c.first(a, refF, b); err != nil {
			t.Fatal(err)
		}
		if err := c.second(a, refF, vol); err != nil { // remembered
			t.Fatal(err)
		}
		if got := rt.NVMToVolSlots(); len(got) != 1 {
			t.Fatalf("%s: remset = %v after NVM-then-vol mixed routing, want the live slot", c.name, got)
		}
		// And the mirror image: the final store is NVM→NVM, so the slot
		// must read absent although it was remembered.
		if err := c.first(a, refF, vol); err != nil {
			t.Fatal(err)
		}
		if err := c.second(a, refF, b); err != nil {
			t.Fatal(err)
		}
		if got := rt.NVMToVolSlots(); len(got) != 0 {
			t.Fatalf("%s: remset = %v after vol-then-NVM mixed routing, want empty", c.name, got)
		}
	}
}
