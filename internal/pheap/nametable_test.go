package pheap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// TestGetRootRacesRemoveAndReuse is the slot index's protocol under fire:
// an eight-entry name table is filled so that a removed root's slot is
// the only insertable one, and a writer cycles RemoveRoot(A), SetRoot(B),
// RemoveRoot(B), SetRoot(A) — B reusing A's slot every time — while a
// reader loops GetRoot("A"), mostly through the index. The reader may find
// A missing, never with B's value. Under -race the value word's stores
// must also be atomic wherever the reader can load it.
func TestGetRootRacesRemoveAndReuse(t *testing.T) {
	h, reg := testHeap(t, Config{NameTabCap: 8, Mode: nvm.Direct})
	p := definePerson(t, reg)
	a, err := h.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("A", a); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if err := h.SetRoot(fmt.Sprintf("fill%d", i), a); err != nil {
			break // full: A's slot is now the only one a new name can take
		}
	}
	if _, ok := h.GetRoot("nosuch"); ok {
		t.Fatal("a full table found a name it never held")
	}

	const cycles = 20_000
	var done atomic.Bool
	var hits, misses int
	var wg sync.WaitGroup
	defer wg.Wait()
	defer done.Store(true)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			ref, ok := h.GetRoot("A")
			switch {
			case !ok:
				misses++
			case ref == a:
				hits++
			default:
				t.Errorf("GetRoot(A) = %#x, not A's %#x (B's is %#x)", uint64(ref), uint64(a), uint64(b))
				return
			}
		}
	}()
	step := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < cycles && !t.Failed(); i++ {
		if !h.RemoveRoot("A") {
			t.Fatal("RemoveRoot(A) found nothing")
		}
		step(h.SetRoot("B", b))
		if !h.RemoveRoot("B") {
			t.Fatal("RemoveRoot(B) found nothing")
		}
		step(h.SetRoot("A", a))
	}
	done.Store(true)
	wg.Wait()
	if ref, ok := h.GetRoot("A"); !ok || ref != a {
		t.Fatalf("after the cycles GetRoot(A) = %#x, %v", uint64(ref), ok)
	}
	if _, ok := h.GetRoot("B"); ok {
		t.Fatal("B survived its last RemoveRoot")
	}
	t.Logf("reader: %d hits, %d misses", hits, misses)
}

// TestGetRootHitCostsOneReadAndNoLock: once a lookup has found a name, a
// repeated lookup through an owner's allocator is one device read counted
// in its own view — nothing in the shared counters — and allocates
// nothing. It does not take h.mu: it returns while another goroutine
// holds it. A missing name still takes the locked probe.
func TestGetRootHitCostsOneReadAndNoLock(t *testing.T) {
	h, reg := testHeap(t, Config{Mode: nvm.Direct})
	p := definePerson(t, reg)
	ref, err := h.Alloc(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("root", ref); err != nil {
		t.Fatal(err)
	}
	a := h.NewAllocator()
	defer a.Release()
	if got, ok := a.GetRoot("root"); !ok || got != ref {
		t.Fatalf("GetRoot = %#x, %v", uint64(got), ok)
	}

	dev0, own0 := h.Device().Stats(), a.Ops()
	if got, ok := a.GetRoot("root"); !ok || got != ref {
		t.Fatalf("GetRoot = %#x, %v", uint64(got), ok)
	}
	own := a.Ops().Sub(own0)
	if want := (nvm.Ops{Reads: 1}); own != want {
		t.Fatalf("hit counted %+v in the allocator's view, want %+v", own, want)
	}
	if d := h.Device().Stats().Sub(dev0); d.Reads != 1 || d.Writes != 0 {
		t.Fatalf("hit cost the device %+v; the view counted all of it only if reads == 1", d)
	}
	if n := testing.AllocsPerRun(100, func() { a.GetRoot("root") }); n != 0 {
		t.Fatalf("hit allocates %.1f per call", n)
	}

	h.mu.Lock()
	hit := make(chan layout.Ref, 1)
	go func() {
		got, _ := a.GetRoot("root")
		hit <- got
	}()
	select {
	case got := <-hit:
		h.mu.Unlock()
		if got != ref {
			t.Fatalf("GetRoot with h.mu held = %#x", uint64(got))
		}
	case <-time.After(10 * time.Second):
		h.mu.Unlock()
		<-hit
		t.Fatal("a hit waited for h.mu")
	}

	own0 = a.Ops()
	if _, ok := a.GetRoot("nosuch"); ok {
		t.Fatal("found a name never set")
	}
	if miss := a.Ops().Sub(own0); miss.Reads < 1 {
		t.Fatalf("a miss probed nothing: %+v", miss)
	}
}
