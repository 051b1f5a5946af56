package core

import (
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// TestParallelMarkStress is TestSATBMarkStress's worker-pool arm: the
// same mutator churn (prepend + unlink through the SATB barrier), but
// every collection runs with an explicit 4-worker marking pool, so the
// shared and stolen halves of the workers' stacks, the shared CAS-claimed
// mark bitmap, the per-worker SATB/remset shard drains, and the parallel
// compaction passes all race against live mutator stores. Run under -race in CI,
// it proves the pool adds no data races over the single-worker marker;
// the model check proves it loses no reachable objects either.
func TestParallelMarkStress(t *testing.T) {
	rt, err := NewRuntime(Config{PJHDataSize: 48 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("pmark", 0); err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("pmark/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "pmark/Node"},
	)
	idF := rt.MustResolveField(node, "id")
	nextF := rt.MustResolveField(node, "next")

	const goroutines = 6
	const iters = 300
	const gcWorkers = 4
	rootName := func(g int) string { return "chain" + string(rune('A'+g)) }

	models := make([][]int64, goroutines) // surviving ids, head first
	var wg sync.WaitGroup
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
			if _, err := rt.PersistentGCConcurrent("pmark", gcWorkers); err != nil {
				gcDone <- err
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := rt.NewMutator()
			if err != nil {
				t.Errorf("mutator %d: %v", g, err)
				return
			}
			defer m.Release()
			name := rootName(g)
			for i := 0; i < iters; i++ {
				id := int64(g*1_000_000 + i)
				var opErr error
				m.Do(func() {
					head, _ := m.GetRoot(name)
					n, err := m.PNew(node, 0)
					if err != nil {
						opErr = err
						return
					}
					m.SetLongFast(n, idF, id)
					if err := m.SetRefFast(n, nextF, head); err != nil {
						opErr = err
						return
					}
					opErr = m.SetRoot(name, n)
				})
				if opErr != nil {
					t.Errorf("mutator %d iter %d: %v", g, i, opErr)
					return
				}
				models[g] = append([]int64{id}, models[g]...)

				if i%3 == 2 && len(models[g]) >= 2 {
					// Unlink the second node: the overwrite the SATB barrier
					// must report to whichever worker owns the shard.
					m.Do(func() {
						head, _ := m.GetRoot(name)
						second := m.GetRefFast(head, nextF)
						if second == layout.NullRef {
							return
						}
						third := m.GetRefFast(second, nextF)
						opErr = m.SetRefFast(head, nextF, third)
					})
					if opErr != nil {
						t.Errorf("mutator %d unlink %d: %v", g, i, opErr)
						return
					}
					models[g] = append(models[g][:1], models[g][2:]...)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopGC)
	if err := <-gcDone; err != nil {
		t.Fatalf("parallel concurrent GC: %v", err)
	}
	if t.Failed() {
		t.FailNow()
	}

	verify := func(when string) {
		for g := 0; g < goroutines; g++ {
			ref, ok := rt.GetRoot(rootName(g))
			if !ok {
				t.Fatalf("%s: chain root %d missing", when, g)
			}
			for i, wantID := range models[g] {
				if ref == layout.NullRef {
					t.Fatalf("%s: chain %d truncated at %d/%d — a reachable object was reclaimed",
						when, g, i, len(models[g]))
				}
				if got := rt.GetLongFast(ref, idF); got != wantID {
					t.Fatalf("%s: chain %d node %d: id %d, want %d", when, g, i, got, wantID)
				}
				ref = rt.GetRefFast(ref, nextF)
			}
			if ref != layout.NullRef {
				t.Fatalf("%s: chain %d has trailing nodes beyond the model", when, g)
			}
		}
	}
	verify("after churn")

	// Quiescent cycles at both worker counts must agree with the models
	// and with each other (the workers axis is byte-identical on a
	// quiescent heap, so graph equality is the weakest consequence).
	if _, err := rt.PersistentGCConcurrent("pmark", gcWorkers); err != nil {
		t.Fatal(err)
	}
	verify("after final parallel GC")
	if _, err := rt.PersistentGCConcurrent("pmark", 1); err != nil {
		t.Fatal(err)
	}
	verify("after final single-worker GC")
	if _, err := rt.PersistentGC("pmark"); err != nil {
		t.Fatal(err)
	}
	verify("after final STW GC")
}
