package core

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// overwriteWorld is a runtime whose rooted persistent node's ref slot has
// held a volatile reference and then a persistent one (or, with
// storeVol false, the persistent one twice): the remembered set still
// holds the slot from the first store, a stale slot every reader must
// see through.
type overwriteWorld struct {
	rt       *Runtime
	obj, val layout.Ref // the node and the persistent value its slot holds
	f        FieldRef
}

func (w overwriteWorld) slot() layout.Ref { return w.obj + layout.Ref(w.f.Offset()) }

// remembered reports whether the set holds slot, whatever the slot holds.
func (w overwriteWorld) remembered(slot layout.Ref) bool {
	rs := w.rt.nvmToVol
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, in := rs.m[slot]
	return in
}

func newOverwriteWorld(t *testing.T, storeVol bool) overwriteWorld {
	t.Helper()
	rt := newRT(t, Config{})
	if _, err := rt.CreateHeap("overwrite", 0); err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("overwrite/Node", nil, klass.Field{Name: "ref", Type: layout.FTRef})
	w := overwriteWorld{rt: rt, f: rt.MustResolveField(node, "ref")}
	var err error
	if w.obj, err = rt.PNew(node, 0); err != nil {
		t.Fatal(err)
	}
	if w.val, err = rt.PNew(node, 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("overwrite/node", w.obj); err != nil {
		t.Fatal(err)
	}
	vol, err := rt.NewString("dram", false)
	if err != nil {
		t.Fatal(err)
	}
	first := w.val
	if storeVol {
		first = vol
	}
	for _, v := range []layout.Ref{first, w.val} {
		if err := rt.SetRefFast(w.obj, w.f, v); err != nil {
			t.Fatal(err)
		}
	}
	if storeVol && !w.remembered(w.slot()) {
		t.Fatal("the volatile store did not remember its slot")
	}
	return w
}

// TestNVMToVolSlotsFiltersOverwrittenSlot: a slot overwritten with a
// persistent reference is not reported, and the read leaves the set as
// it found it — NVMToVolSlots runs beside mutators, where a prune could
// drop a slot another mutator is adding again.
func TestNVMToVolSlotsFiltersOverwrittenSlot(t *testing.T) {
	w := newOverwriteWorld(t, true)
	if got := w.rt.NVMToVolSlots(); len(got) != 0 {
		t.Fatalf("NVMToVolSlots = %#x, want none: the slot holds a persistent reference", got)
	}
	if !w.remembered(w.slot()) {
		t.Fatal("NVMToVolSlots pruned the set")
	}
}

// TestPersistentGCSkipsRescanAfterOverwrite: PersistentGC prunes the
// stale slot before the collection, so the collection skips the
// remembered set's whole-heap rescan and reads the device exactly as
// often as in a twin runtime that never stored a volatile reference.
func TestPersistentGCSkipsRescanAfterOverwrite(t *testing.T) {
	var reads [2]uint64
	for i, storeVol := range []bool{false, true} {
		w := newOverwriteWorld(t, storeVol)
		res, err := w.rt.PersistentGC("overwrite")
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = res.PauseDeviceStats.Reads
		if w.remembered(w.slot()) {
			t.Errorf("storeVol=%v: the collection kept the stale slot", storeVol)
		}
	}
	if reads[1] != reads[0] {
		t.Fatalf("pause reads %d after a volatile store was overwritten, %d without one: the rescan ran", reads[1], reads[0])
	}
}

// TestVolatileGCDropsOverwrittenSlot: a volatile collection treats the
// stale slot as no root: it neither keeps it in the set nor writes it.
func TestVolatileGCDropsOverwrittenSlot(t *testing.T) {
	for _, gc := range []struct {
		name string
		run  func(*Runtime) error
	}{{"MinorGC", (*Runtime).MinorGC}, {"FullGC", (*Runtime).FullGC}} {
		t.Run(gc.name, func(t *testing.T) {
			w := newOverwriteWorld(t, true)
			if err := gc.run(w.rt); err != nil {
				t.Fatal(err)
			}
			if w.remembered(w.slot()) {
				t.Error("the collection kept the stale slot")
			}
			if got := w.rt.GetRefFast(w.obj, w.f); got != w.val {
				t.Errorf("slot holds %#x after the collection, want %#x", uint64(got), uint64(w.val))
			}
			if got := w.rt.NVMToVolSlots(); len(got) != 0 {
				t.Errorf("NVMToVolSlots = %#x, want none", got)
			}
		})
	}
}
