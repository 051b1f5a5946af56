package ptx_test

import (
	"sort"
	"testing"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/ptx"
)

// remsetWorld builds a runtime-attached heap (so the remset sink is
// installed), a holder object with two reference fields, and a ptx
// manager on the same heap.
func remsetWorld(t *testing.T) (*core.Runtime, *ptx.Manager, layout.Ref, [2]int) {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("txremset", 0)
	if err != nil {
		t.Fatal(err)
	}
	holder := klass.MustInstance("tx/Holder", nil,
		klass.Field{Name: "a", Type: layout.FTRef},
		klass.Field{Name: "b", Type: layout.FTRef},
	)
	obj, err := rt.PNew(holder, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ptx.NewManager(h)
	if err != nil {
		t.Fatal(err)
	}
	aOff, _ := holder.FieldIndex("a")
	bOff, _ := holder.FieldIndex("b")
	return rt, m, obj, [2]int{layout.FieldOff(aOff), layout.FieldOff(bOff)}
}

func sortedSlots(rt *core.Runtime) []layout.Ref {
	slots := rt.NVMToVolSlots()
	sort.Slice(slots, func(i, j int) bool { return slots[i] < slots[j] })
	return slots
}

// TestTxStoresRememberVolatileSlots: an NVM→volatile reference store
// inside a transaction reaches the remembered set as it lands, before
// the commit (it is on the device, so a GC running before commit must
// treat it as a root), and a committed overwrite with a persistent
// reference takes the slot out of what the set's readers see.
func TestTxStoresRememberVolatileSlots(t *testing.T) {
	rt, m, obj, offs := remsetWorld(t)
	vol, err := rt.NewString("volatile", false)
	if err != nil {
		t.Fatal(err)
	}

	tx := m.Begin()
	if err := tx.WriteRefWord(obj, offs[0], vol); err != nil {
		t.Fatal(err)
	}
	// Mid-transaction the set already holds the edge: the volatile ref is
	// on the device and a collector cannot miss it.
	if n := len(rt.NVMToVolSlots()); n != 1 {
		t.Fatalf("remset has %d slots mid-transaction, want 1 (the in-flight store is a live edge)", n)
	}
	tx.Commit()

	want := []layout.Ref{obj + layout.Ref(offs[0])}
	if got := sortedSlots(rt); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("remset after commit = %v, want %v", got, want)
	}

	// Overwriting with a persistent ref: the slot reads absent.
	pers, err := rt.NewString("persistent", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(tx *ptx.Tx) error {
		return tx.WriteRefWord(obj, offs[0], pers)
	}); err != nil {
		t.Fatal(err)
	}
	if got := rt.NVMToVolSlots(); len(got) != 0 {
		t.Fatalf("remset after overwrite commit = %v, want empty", got)
	}
}

// TestAbortRestoresRemset: an aborted transaction leaves the remembered
// set as its readers see it exactly as it was before the transaction —
// a slot the transaction made volatile reads absent again, and a
// volatile slot it overwrote is volatile again (the rollback restores
// the volatile value through the barrier).
func TestAbortRestoresRemset(t *testing.T) {
	rt, m, obj, offs := remsetWorld(t)
	volA, err := rt.NewString("volA", false)
	if err != nil {
		t.Fatal(err)
	}
	volB, err := rt.NewString("volB", false)
	if err != nil {
		t.Fatal(err)
	}
	pers, err := rt.NewString("persistent", true)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-state: slot a holds a volatile ref (committed), slot b is null.
	if err := m.Run(func(tx *ptx.Tx) error {
		return tx.WriteRefWord(obj, offs[0], volA)
	}); err != nil {
		t.Fatal(err)
	}
	before := sortedSlots(rt)
	if len(before) != 1 {
		t.Fatalf("pre-state remset = %v, want 1 slot", before)
	}

	// The doomed transaction flips both slots: a volatile→persistent,
	// b null→volatile. A read mid-transaction (what a GC while the tx is
	// open sees) finds the in-flight state — and Abort must still restore
	// the pre-transaction set afterwards.
	tx := m.Begin()
	if err := tx.WriteRefWord(obj, offs[0], pers); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteRefWord(obj, offs[1], volB); err != nil {
		t.Fatal(err)
	}
	if mid := sortedSlots(rt); len(mid) != 1 || mid[0] != obj+layout.Ref(offs[1]) {
		t.Fatalf("mid-transaction remset = %v, want exactly the in-flight volatile slot b", mid)
	}
	tx.Abort()

	after := sortedSlots(rt)
	if len(after) != len(before) || after[0] != before[0] {
		t.Fatalf("remset after abort = %v, want pre-transaction %v", after, before)
	}
	// And the rolled-back slot values agree with the membership.
	h := rt.Heaps()[0]
	if got := layout.Ref(h.GetWord(obj, offs[0])); got != volA {
		t.Fatalf("slot a rolled back to %#x, want volA %#x", uint64(got), uint64(volA))
	}
	if got := layout.Ref(h.GetWord(obj, offs[1])); got != layout.NullRef {
		t.Fatalf("slot b rolled back to %#x, want null", uint64(got))
	}
}
