package core

import (
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// TestMutatorParallelPNew: several mutator contexts allocate persistent
// objects concurrently; the results are distinct, typed, live across a
// stop-the-world persistent collection (which retires every PLAB at the
// safepoint), and allocation resumes cleanly afterwards.
func TestMutatorParallelPNew(t *testing.T) {
	rt, err := NewRuntime(Config{PJHDataSize: 32 << 20, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("mut", 0)
	if err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("mut/Node", nil,
		klass.Field{Name: "v", Type: layout.FTLong},
		klass.Field{Name: "pad", Type: layout.FTLong},
	)

	const goroutines = 6
	const perG = 500
	refs := make([][]layout.Ref, goroutines)
	muts := make([]*Mutator, goroutines)
	for g := range muts {
		if muts[g], err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := muts[g]
			for i := 0; i < perG; i++ {
				ref, err := m.PNew(node, 0)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				h.SetWord(ref, layout.FieldOff(0), uint64(g*perG+i))
				refs[g] = append(refs[g], ref)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	seen := make(map[layout.Ref]bool)
	for g, rs := range refs {
		if len(rs) != perG {
			t.Fatalf("goroutine %d allocated %d, want %d", g, len(rs), perG)
		}
		for _, r := range rs {
			if seen[r] {
				t.Fatalf("duplicate ref %#x", uint64(r))
			}
			seen[r] = true
			if k, err := rt.KlassOf(r); err != nil || k.Name != "mut/Node" {
				t.Fatalf("KlassOf(%#x) = %v, %v", uint64(r), k, err)
			}
		}
	}

	// Keep one chain rooted, collect (world stopped: mutator goroutines
	// have joined), and verify the safepoint retired the PLABs without
	// losing the rooted object or breaking allocation afterwards.
	if err := rt.SetRoot("keeper", refs[0][0]); err != nil {
		t.Fatal(err)
	}
	res, err := rt.PersistentGC("mut")
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 1 {
		t.Fatalf("live after GC = %d, want 1", res.LiveObjects)
	}
	keeper, _ := rt.GetRoot("keeper")
	if v := h.GetWord(keeper, layout.FieldOff(0)); v != 0 {
		t.Fatalf("keeper field = %d, want 0", v)
	}
	for g, m := range muts {
		if _, err := m.PNew(node, 0); err != nil {
			t.Fatalf("mutator %d post-GC PNew: %v", g, err)
		}
		m.Release()
	}
}

// TestMutatorAllocationsSurviveReboot: objects published by mutator PLABs
// survive a crash image reload, and the mutator stats expose the PLAB
// accounting used by the alloc experiment.
func TestMutatorAllocationsSurviveReboot(t *testing.T) {
	dir := t.TempDir()
	rt, err := NewRuntime(Config{HeapDir: dir, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("reboot", 8<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("reboot/Node", nil,
		klass.Field{Name: "v", Type: layout.FTLong},
	)
	ref, err := m.PNew(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Heap().SetWord(ref, layout.FieldOff(0), 777)
	if err := rt.FlushObject(ref); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRoot("it", ref); err != nil {
		t.Fatal(err)
	}
	if s := m.AllocStats(); s.Allocs != 1 || s.Dispenses != 1 {
		t.Fatalf("mutator stats = %+v", s)
	}
	if err := rt.SyncHeap("reboot"); err != nil {
		t.Fatal(err)
	}

	rt2, err := NewRuntime(Config{HeapDir: dir, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt2.LoadHeap("reboot")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rt2.GetRoot("it")
	if !ok {
		t.Fatal("root lost across reboot")
	}
	if v := h2.GetWord(got, layout.FieldOff(0)); v != 777 {
		t.Fatalf("field after reboot = %d", v)
	}
}

// TestCloseMakesRegionTopsExact: a mutator's bump allocations leave its
// region's persisted top behind; the image reloads either way, but after
// Close the reload has nothing to parse forward, and the mutator goes on
// allocating where it was.
func TestCloseMakesRegionTopsExact(t *testing.T) {
	rt := newRT(t, Config{PJHDataSize: 1 << 20})
	h, err := rt.CreateHeap("close", 0)
	if err != nil {
		t.Fatal(err)
	}
	k := personKlass(t, rt)
	m, err := rt.NewMutator()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	// alloc allocates n objects and names the last (each earlier one is
	// settled by the allocation after it), so a reload must find them all.
	alloc := func(n int) {
		t.Helper()
		var last layout.Ref
		for i := 0; i < n; i++ {
			var err error
			if last, err = m.PNew(k, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.SetRoot("last", last); err != nil {
			t.Fatal(err)
		}
	}
	validated := func() int {
		t.Helper()
		re, err := pheap.Load(nvm.FromImage(h.Device().CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range re.RecoveredRegions() {
			n += r.Frontier - r.Top
		}
		if re.UsedBytes() < h.UsedBytes() {
			t.Fatalf("reload holds %d bytes, the running heap %d", re.UsedBytes(), h.UsedBytes())
		}
		return n
	}
	alloc(50)
	if got := validated(); got != 50*k.SizeOf(0) {
		t.Fatalf("reload of the open image validated %d bytes above the tops, want the 50 objects' %d", got, 50*k.SizeOf(0))
	}
	rt.Close()
	if got := validated(); got != 0 {
		t.Fatalf("reload after Close validated %d bytes above the tops", got)
	}
	used := h.UsedBytes()
	alloc(1)
	if got := h.UsedBytes(); got != used+k.SizeOf(0) {
		t.Fatalf("allocation after Close moved UsedBytes %d → %d", used, got)
	}
}
