package core

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// TestRemsetDeltaCrossBufferOrder pins the publication-order hazard: one
// slot stored through two different contexts (a Runtime-routed store
// uses the heap's ownerless context, a Mutator-routed one its own
// allocator), where drain order disagrees with store order. Publication
// re-derives membership from the device, so the later store must win
// regardless of which context drains first.
func TestRemsetDeltaCrossBufferOrder(t *testing.T) {
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

	// Contexts drain in registration order, the ownerless one first. Every
	// pairing of (who stores last) x (what the last store leaves) follows,
	// so half the cases have a drain order that disagrees with the store
	// order whichever way the registry happens to be ordered: a drain
	// trusting hints would apply add-then-remove and drop a live edge, or
	// remove-then-add and keep a dead one.
	type store func(layout.Ref, FieldRef, layout.Ref) error
	for _, c := range []struct {
		name          string
		first, second store
	}{
		{"Runtime then Mutator", rt.SetRefFast, m.SetRefFast},
		{"Mutator then Runtime", m.SetRefFast, rt.SetRefFast},
	} {
		if err := c.first(a, refF, b); err != nil { // NVM ref → remove hint
			t.Fatal(err)
		}
		if err := c.second(a, refF, vol); err != nil { // volatile → add hint
			t.Fatal(err)
		}
		if got := rt.NVMToVolSlots(); len(got) != 1 {
			t.Fatalf("%s: remset = %v after NVM-then-vol mixed routing, want the live slot", c.name, got)
		}
		// And the mirror image: the final store is NVM→NVM, so the slot
		// must end absent whichever hint drains last.
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
