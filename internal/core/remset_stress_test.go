package core

import (
	"sort"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// TestRemsetDeltaGCStress is the write-combining barrier's correctness
// stress: mutator goroutines churn NVM→volatile and NVM→NVM reference
// stores through their per-mutator delta buffers while a collector
// goroutine runs back-to-back persistent collections (each safepoint
// draining whatever deltas happen to be pending). After every round the
// world quiesces, one more cycle plus a volatile
// scavenge consume the remembered set, and the published set must equal
// the single-threaded oracle exactly — the slot set whose last store was
// a volatile reference. No delta may be lost, duplicated, or misordered
// on its way from a mutator-local buffer to the shared set, across
// buffer overflows, safepoint drains, and compactions that move the
// objects owning the slots. Runs under -race in CI.
func TestRemsetDeltaGCStress(t *testing.T) {
	rt, err := NewRuntime(Config{PJHDataSize: 48 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("remset", 0); err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("remset/Node", nil,
		klass.Field{Name: "ref", Type: layout.FTRef},
		klass.Field{Name: "pad", Type: layout.FTLong},
	)
	refF := rt.MustResolveField(node, "ref")

	const goroutines = 6
	const nodesPerG = 24
	const rounds = 6
	const opsPerRound = 700 // > RemsetDeltaOverflow so overflow publication is exercised

	// All nodes live in one rooted object array, all volatile targets in
	// another persistent array ("volHolder"), so compaction can move
	// nodes and volatile scavenges can move targets while every consumer
	// re-derives addresses through roots. The volHolder's own element
	// slots hold volatile refs, so they are permanent remset members.
	arr, err := rt.PNew(rt.Reg.ObjArray("remset/Node"), goroutines*nodesPerG)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < goroutines*nodesPerG; i++ {
		n, err := rt.PNew(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetElem(arr, i, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.SetRoot("remset/nodes", arr); err != nil {
		t.Fatal(err)
	}
	vh, err := rt.PNew(rt.Reg.ObjArray("java/lang/Object"), goroutines)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		v, err := rt.NewString("vol-target", false)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetElem(vh, g, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.SetRoot("remset/vols", vh); err != nil {
		t.Fatal(err)
	}

	muts := make([]*Mutator, goroutines)
	for g := range muts {
		if muts[g], err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
		defer muts[g].Release()
	}

	// lastVol is the oracle: per node, whether the most recent store to
	// its ref slot was a volatile reference. Written only by the owning
	// mutator during a round, read only by the main goroutine between
	// rounds (the WaitGroup is the happens-before edge).
	lastVol := make([][]bool, goroutines)
	for g := range lastVol {
		lastVol[g] = make([]bool, nodesPerG)
	}

	verify := func(when string, round int) {
		t.Helper()
		arrRef, ok := rt.GetRoot("remset/nodes")
		if !ok {
			t.Fatalf("%s round %d: node array root missing", when, round)
		}
		vhRef, _ := rt.GetRoot("remset/vols")
		var expected []layout.Ref
		for g := 0; g < goroutines; g++ {
			vslot := vhRef + layout.Ref(layout.ElemOff(layout.FTRef, g))
			expected = append(expected, vslot)
			for j := 0; j < nodesPerG; j++ {
				if !lastVol[g][j] {
					continue
				}
				n, err := rt.GetElem(arrRef, g*nodesPerG+j)
				if err != nil {
					t.Fatalf("%s round %d: %v", when, round, err)
				}
				expected = append(expected, n+layout.Ref(refF.Offset()))
			}
		}
		got := rt.NVMToVolSlots()
		sort.Slice(expected, func(i, j int) bool { return expected[i] < expected[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != len(expected) {
			t.Fatalf("%s round %d: remset has %d slots, oracle says %d",
				when, round, len(got), len(expected))
		}
		for i := range got {
			if got[i] != expected[i] {
				t.Fatalf("%s round %d: remset[%d] = %#x, oracle %#x",
					when, round, i, uint64(got[i]), uint64(expected[i]))
			}
		}
	}

	for round := 0; round < rounds; round++ {
		// Collector goroutine races the round's churn with back-to-back
		// cycles.
		stopGC := make(chan struct{})
		gcDone := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stopGC:
					gcDone <- nil
					return
				default:
				}
				if _, err := rt.PersistentGC("remset"); err != nil {
					gcDone <- err
					return
				}
			}
		}()

		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				m := muts[g]
				for i := 0; i < opsPerRound; i++ {
					j := (round*opsPerRound + i) % nodesPerG
					toVol := i%3 == 2
					var opErr error
					m.Do(func() {
						arrRef, _ := m.GetRoot("remset/nodes")
						n, err := m.GetElem(arrRef, g*nodesPerG+j)
						if err != nil {
							opErr = err
							return
						}
						var val layout.Ref
						if toVol {
							vhRef, _ := m.GetRoot("remset/vols")
							if val, err = m.GetElem(vhRef, g); err != nil {
								opErr = err
								return
							}
						} else if val, err = m.GetElem(arrRef, g*nodesPerG+(j+1)%nodesPerG); err != nil {
							opErr = err
							return
						}
						opErr = m.SetRefFast(n, refF, val)
					})
					if opErr != nil {
						t.Errorf("mutator %d round %d op %d: %v", g, round, i, opErr)
						return
					}
					lastVol[g][j] = toVol
				}
			}(g)
		}
		wg.Wait()
		close(stopGC)
		if err := <-gcDone; err != nil {
			t.Fatalf("round %d GC: %v", round, err)
		}
		if t.Failed() {
			t.FailNow()
		}

		// Quiesced: one more cycle (pending deltas drain at its safepoint,
		// compaction may move every node), then a volatile
		// scavenge (which consumes the set as roots and patches the moved
		// targets), then the oracle comparison.
		if _, err := rt.PersistentGC("remset"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		verify("after a cycle", round)
		if err := rt.MinorGC(); err != nil {
			t.Fatalf("round %d minor GC: %v", round, err)
		}
		verify("after volatile scavenge", round)
	}

	// A final stop-the-world collection must see the same remset.
	if _, err := rt.PersistentGC("remset"); err != nil {
		t.Fatal(err)
	}
	verify("after final STW GC", rounds)
}
