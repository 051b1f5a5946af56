package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
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

// TestHeapAttachBesideAccessors: the runtime's heap list is read on every
// ownerless access and allocation, from any goroutine, while CreateHeap,
// LoadHeap and SetActiveHeap change it. One goroutine reads objects of
// two heaps in turn, so each read looks its heap up again; another
// allocates in whatever heap is active; the test goroutine meanwhile
// attaches five heaps and switches the active one. Under -race, any
// unsynchronised read of the list or of the active heap is reported.
func TestHeapAttachBesideAccessors(t *testing.T) {
	dir := t.TempDir()
	src := newRT(t, Config{HeapDir: dir, PJHDataSize: 1 << 20})
	if _, err := src.CreateHeap("synced", 0); err != nil {
		t.Fatal(err)
	}
	if err := src.SyncHeap("synced"); err != nil {
		t.Fatal(err)
	}

	rt := newRT(t, Config{HeapDir: dir})
	p := personKlass(t, rt)
	var objs [2]layout.Ref
	for i, name := range []string{"a", "b"} {
		if _, err := rt.CreateHeap(name, 0); err != nil {
			t.Fatal(err)
		}
		ref, err := rt.PNew(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetLong(ref, "id", int64(i)); err != nil {
			t.Fatal(err)
		}
		objs[i] = ref
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var started sync.WaitGroup
	wg.Add(2)
	started.Add(2)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			i := n % 2
			if id, err := rt.GetLong(objs[i], "id"); err != nil || id != int64(i) {
				t.Errorf("object in heap %d read id %d, err %v", i, id, err)
				return
			}
			if n == 1 {
				started.Done()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			if _, err := rt.PNew(p, 0); err != nil {
				t.Errorf("pnew beside attach: %v", err)
				return
			}
			if n == 0 {
				started.Done()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	started.Wait()
	for i := 0; i < 4; i++ {
		if _, err := rt.CreateHeap(fmt.Sprintf("c%d", i), 0); err != nil {
			t.Error(err)
		}
	}
	if _, err := rt.LoadHeap("synced"); err != nil {
		t.Error(err)
	}
	if err := rt.SetActiveHeap("b"); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()

	heaps := rt.Heaps()
	if len(heaps) != 7 || !slices.IsSortedFunc(heaps, func(x, y *pheap.Heap) int { return cmp.Compare(x.Base(), y.Base()) }) {
		t.Fatalf("%d heaps, sorted by base: want 7, sorted", len(heaps))
	}
	for _, name := range []string{"a", "b", "c0", "c1", "c2", "c3", "synced"} {
		if h, ok := rt.Heap(name); !ok || h.Name() != name {
			t.Errorf("heap %q not found by name", name)
		}
	}
	if h := rt.ActiveHeap(); h == nil || h.Name() != "b" {
		t.Errorf("active heap %v, want b", h)
	}
}
