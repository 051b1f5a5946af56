package core

import (
	"runtime"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// TestSATBMarkStress is the concurrent collector's correctness stress:
// several mutator goroutines churn rooted linked lists — allocating,
// prepending, and unlinking nodes through the SATB pre-write barrier —
// while the collector runs concurrent collections on another goroutine.
// After the churn, each mutator's surviving chain must match its local
// model exactly: no reachable object was ever reclaimed, no payload
// corrupted, no link broken. Run under -race in CI, this also proves the
// marker/mutator access discipline (atomic slot loads vs atomic slot
// stores, safepoint handshake for everything else) is data-race-free.
func TestSATBMarkStress(t *testing.T) {
	rt, err := NewRuntime(Config{PJHDataSize: 48 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("satb", 0); err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("satb/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "satb/Node"},
	)
	idF := rt.MustResolveField(node, "id")
	nextF := rt.MustResolveField(node, "next")

	const goroutines = 6
	const iters = 400
	rootName := func(g int) string { return "chain" + string(rune('A'+g)) }

	models := make([][]int64, goroutines) // surviving ids, head first
	var wg sync.WaitGroup
	stopGC := make(chan struct{})

	// Collector goroutine: back-to-back concurrent collections while the
	// mutators churn. Every cycle pauses the world only for handshake and
	// compaction; marking overlaps the stores below.
	gcDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopGC:
				gcDone <- nil
				return
			default:
			}
			if _, err := rt.PersistentGCConcurrent("satb", runtime.GOMAXPROCS(0)); err != nil {
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
				// Multi-step sequences pin the world with Do so the refs
				// they hold stay valid across the whole sequence.
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
					// Unlink the second node: overwrites head.next while the
					// marker may be tracing — exactly the store the SATB
					// barrier exists for.
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
		t.Fatalf("concurrent GC: %v", err)
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

	// One quiescent concurrent cycle and one STW cycle: the floating
	// garbage drains and the graphs still match both collectors.
	if _, err := rt.PersistentGCConcurrent("satb", runtime.GOMAXPROCS(0)); err != nil {
		t.Fatal(err)
	}
	verify("after final concurrent GC")
	if _, err := rt.PersistentGC("satb"); err != nil {
		t.Fatal(err)
	}
	verify("after final STW GC")
}
