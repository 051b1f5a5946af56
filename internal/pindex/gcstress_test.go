package pindex

import (
	"fmt"
	"sync"
	"testing"

	"espresso/internal/core"
	"espresso/internal/layout"
)

// TestPIndexGCStress runs mixed get/put/delete traffic from several
// goroutines — each a safepoint-pinned lock-free context — while
// collections cycle between their operations, then verifies the map's
// exact contents. Run under -race in CI: it exercises the safepoint pins
// against the collector's pauses, the marker's tag-stripping trace and
// the compactor's tag-preserving reference fixing.
func TestPIndexGCStress(t *testing.T) {
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 24 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(h, rt.SafepointPinner(), "idx", Options{InitialBuckets: 8, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	const perG = 250
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := ix.NewCtx()
			defer c.Release()
			base := int64(g) << 32
			for i := int64(0); i < perG; i++ {
				k := base + i
				if err := c.Put(k, layout.NullRef); err != nil {
					errs[g] = fmt.Errorf("put %d: %w", k, err)
					return
				}
				if _, ok := c.Get(k); !ok {
					errs[g] = fmt.Errorf("get-after-put %d missed", k)
					return
				}
				if i%5 == 4 {
					if !c.Delete(k) {
						errs[g] = fmt.Errorf("delete %d missed", k)
						return
					}
				}
			}
		}(g)
	}
	gcErr := make(chan error, 1)
	go func() {
		for cycle := 0; cycle < 3; cycle++ {
			if _, err := rt.PersistentGC("kv"); err != nil {
				gcErr <- err
				return
			}
		}
		gcErr <- nil
	}()
	wg.Wait()
	if err := <-gcErr; err != nil {
		t.Fatalf("GC: %v", err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// One quiescent cycle (compaction moves the whole structure), then
	// verify contents exactly.
	if _, err := rt.PersistentGC("kv"); err != nil {
		t.Fatal(err)
	}
	c := ix.NewCtx()
	defer c.Release()
	want := 0
	for g := 0; g < goroutines; g++ {
		base := int64(g) << 32
		for i := int64(0); i < perG; i++ {
			_, ok := c.Get(base + i)
			if deleted := i%5 == 4; ok == deleted {
				t.Fatalf("g=%d i=%d present=%v deleted=%v", g, i, ok, deleted)
			}
			if i%5 != 4 {
				want++
			}
		}
	}
	if ix.Len() != want {
		t.Fatalf("Len = %d, want %d", ix.Len(), want)
	}
	scanned := 0
	c.Scan(func(int64, layout.Ref) bool { scanned++; return true })
	if scanned != want {
		t.Fatalf("scan saw %d, want %d", scanned, want)
	}
}
