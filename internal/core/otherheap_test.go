package core

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// otherHeapWorld is a runtime with heaps A and B on devices of the given
// mode and a mutator attached to A (the active heap when it was created)
// that is about to store into objects of B.
func otherHeapWorld(t *testing.T, mode nvm.Mode) (rt *Runtime, hb *pheap.Heap, m *Mutator, node *klass.Klass, nextF FieldRef) {
	t.Helper()
	rt, err := NewRuntime(Config{PJHDataSize: 8 << 20, NVMMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if hb, err = rt.CreateHeap("B", 0); err != nil {
		t.Fatal(err)
	}
	if _, err = rt.CreateHeap("A", 0); err != nil {
		t.Fatal(err)
	}
	if m, err = rt.NewMutator(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Release)
	if m.Heap().Name() != "A" {
		t.Fatalf("mutator attached to %q, want A", m.Heap().Name())
	}
	if err := rt.SetActiveHeap("B"); err != nil {
		t.Fatal(err)
	}
	node = klass.MustInstance("other/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "other/Node"},
	)
	return rt, hb, m, node, rt.MustResolveField(node, "next")
}

// TestMutatorStoreIntoOtherHeap: a reference store's barrier belongs to
// the heap holding the slot, whoever stores. A mutator attached to heap A
// that stores into an object of heap B must leave its remembered-set
// delta where B's safepoint publishes — in its own (A's) buffer, B's
// collector would leave a dangling volatile root.
func TestMutatorStoreIntoOtherHeap(t *testing.T) {
	t.Run("remset", func(t *testing.T) {
		rt, _, m, node, nextF := otherHeapWorld(t, 0)
		// Garbage first, so the collection below slides the rooted object.
		for i := 0; i < 64; i++ {
			if _, err := rt.PNew(node, 0); err != nil {
				t.Fatal(err)
			}
		}
		holder, err := rt.PNew(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetRoot("holder", holder); err != nil {
			t.Fatal(err)
		}
		vol, err := rt.NewString("volatile", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetRefFast(holder, nextF, vol); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.PersistentGC("B"); err != nil {
			t.Fatal(err)
		}
		moved, ok := rt.GetRoot("holder")
		if !ok || moved == holder {
			t.Fatalf("holder did not move (%#x → %#x); the test needs it to", uint64(holder), uint64(moved))
		}
		want := moved + layout.Ref(nextF.Offset())
		if got := rt.NVMToVolSlots(); len(got) != 1 || got[0] != want {
			t.Fatalf("remembered set = %#x, want exactly the post-compaction slot %#x", got, uint64(want))
		}
	})

	// Collections of B on another goroutine race a mutator attached to A
	// that keeps unlinking and relinking B's chain inside Do. Every node
	// ever reachable must survive.
	t.Run("concurrent-gc", func(t *testing.T) {
		rt, _, m, node, nextF := otherHeapWorld(t, 0)
		idF := rt.MustResolveField(node, "id")
		const n = 200
		var head layout.Ref
		for i := n - 1; i >= 0; i-- {
			ref, err := rt.PNew(node, 0)
			if err != nil {
				t.Fatal(err)
			}
			rt.SetLongFast(ref, idF, int64(i))
			if err := rt.SetRefFast(ref, nextF, head); err != nil {
				t.Fatal(err)
			}
			head = ref
		}
		if err := rt.SetRoot("chain", head); err != nil {
			t.Fatal(err)
		}
		const cycles = 5
		done := make(chan struct{})
		go func() {
			defer close(done)
			for c := 0; c < cycles; c++ {
				if _, err := rt.PersistentGC("B"); err != nil {
					t.Errorf("GC of B: %v", err)
					return
				}
			}
		}()
		// Rotate the chain: unlink the second node (the only path to it is
		// briefly a Go local inside Do, which no collection can interrupt)
		// and relink it behind the head's new successor.
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			m.Do(func() {
				h, _ := m.GetRoot("chain")
				second := m.GetRefFast(h, nextF)
				third := m.GetRefFast(second, nextF)
				if err := m.SetRefFast(h, nextF, third); err != nil {
					t.Error(err)
				}
				if err := m.SetRefFast(second, nextF, m.GetRefFast(third, nextF)); err != nil {
					t.Error(err)
				}
				if err := m.SetRefFast(third, nextF, second); err != nil {
					t.Error(err)
				}
			})
		}
		if _, err := rt.PersistentGC("B"); err != nil {
			t.Fatal(err)
		}
		seen := make(map[int64]bool)
		ref, _ := rt.GetRoot("chain")
		for ref != layout.NullRef {
			k, err := rt.KlassOf(ref)
			if err != nil || k.Name != node.Name {
				t.Fatalf("chain runs into %#x: klass %v, err %v", uint64(ref), k, err)
			}
			seen[rt.GetLongFast(ref, idF)] = true
			ref = rt.GetRefFast(ref, nextF)
		}
		if len(seen) != n {
			t.Fatalf("%d of %d chain nodes survived B's collections", len(seen), n)
		}
	})
}
