package espresso

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestPMapBasics(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("kv", 8<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenPMap("kv", "users", PMapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		name, err := rt.NewString(fmt.Sprintf("user-%d", i), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put(i, name); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 200; i++ {
		v, ok := m.Get(i)
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		s, err := rt.GetString(v)
		if err != nil || s != fmt.Sprintf("user-%d", i) {
			t.Fatalf("key %d: %q, %v", i, s, err)
		}
	}
	if !m.Delete(7) {
		t.Fatal("delete 7 missed")
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("deleted key visible")
	}
	if m.Len() != 199 {
		t.Fatalf("Len = %d", m.Len())
	}
	seen := 0
	m.Scan(func(int64, Ref) bool { seen++; return true })
	if seen != 199 {
		t.Fatalf("scan saw %d", seen)
	}
}

// TestPMapSurvivesConcurrentGC runs mixed map traffic on several
// goroutines while concurrent collections cycle, then verifies exact
// contents — the index's safepoint pinning, SATB barrier, and tag-aware
// compaction all under load.
func TestPMapSurvivesConcurrentGC(t *testing.T) {
	rt, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.CreateHeap("kv", 24<<20); err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenPMap("kv", "idx", PMapOptions{InitialBuckets: 8, MaxLoadFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const perG = 300
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) << 32
			for i := int64(0); i < perG; i++ {
				k := base + i
				if err := m.Put(k, 0); err != nil {
					errs[g] = err
					return
				}
				if i%4 == 3 {
					if !m.Delete(k) {
						errs[g] = fmt.Errorf("delete %d missed", k)
						return
					}
				}
			}
		}(g)
	}
	gcDone := make(chan error, 1)
	go func() {
		for cycle := 0; cycle < 3; cycle++ {
			if _, err := rt.PersistentGCConcurrent("kv", runtime.GOMAXPROCS(0)); err != nil {
				gcDone <- err
				return
			}
		}
		gcDone <- nil
	}()
	wg.Wait()
	if err := <-gcDone; err != nil {
		t.Fatalf("concurrent GC: %v", err)
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// One more cycle against the quiescent map, then verify exactly.
	if _, err := rt.PersistentGCConcurrent("kv", runtime.GOMAXPROCS(0)); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		base := int64(g) << 32
		for i := int64(0); i < perG; i++ {
			_, ok := m.Get(base + i)
			if deleted := i%4 == 3; ok == deleted {
				t.Fatalf("g=%d i=%d present=%v deleted=%v", g, i, ok, deleted)
			}
		}
	}
}
