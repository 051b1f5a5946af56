package espresso

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// TestConcurrentGCChurn is gc_churn (benchmark/gc_churn.go) under the
// concurrent collector: live nodes in rooted lists, two mutators that,
// inside Do, churn short-lived nodes and relink live ones, and
// PersistentGCConcurrent cycles back to back beside them. At this shape
// the collector once failed its second cycle ("marking ...: dangling klass
// word 0x0" on an object a mutator had allocated during the previous
// cycle's marking and stored into a directory older than the snapshot);
// nothing else pins that it no longer does.
//
// Half the churned nodes are never named: each is a deferred header (the
// heap's alloc.go) until its allocator's next allocation settles it — or,
// when the world stops first, the pause's PrepareForCollection, which must
// settle it before any region top is republished above it: the allocator
// comes out of the pause without a PLAB, so nothing else ever would. The
// test ends by reloading a flushed-only crash image, which has to parse,
// and walking every list against the oracle.
//
// Tier-1 runs a tenth of the shape; -churn.full (ci.yml's race-core job)
// runs gc_churn's own 200 k live nodes.
var churnFull = flag.Bool("churn.full", false, "run TestConcurrentGCChurn at gc_churn's full shape (200 k live nodes)")

const (
	churnListLen  = 100 // nodes per list
	churnScratch  = 64  // directory slots each mutator publishes churned nodes in
	churnCycles   = 10  // concurrent collections, back to back
	churnWalkLen  = 16  // nodes a read op checks
	churnMutators = 2
)

func TestConcurrentGCChurn(t *testing.T) {
	live, heapSize := 20_000, 8<<20
	if *churnFull {
		live, heapSize = 200_000, 48<<20
	}
	rt, err := Open(Options{TrackedNVM: true})
	if err != nil {
		t.Fatal(err)
	}
	const heapName = "churn"
	if err := rt.CreateHeap(heapName, heapSize); err != nil {
		t.Fatal(err)
	}
	h, _ := rt.Heap(heapName)
	node := MustClass("churn/Node", nil, Long("val"), Long("aux"), RefTo("next", "churn/Node"), RefTo("peer", "churn/Node"))
	fVal, fNext := rt.MustResolveField(node, "val"), rt.MustResolveField(node, "next")
	lists := live / churnListLen / churnMutators

	// Build each mutator's lists and rooted directory, one after the other.
	var (
		muts  [churnMutators]*Mutator
		roots [churnMutators]string
		vals  [churnMutators][]int64 // vals[g][l*churnListLen+k]: the k-th node of list l
	)
	for g := range muts {
		if muts[g], err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
		roots[g], vals[g] = fmt.Sprintf("churn/dir-%d", g), make([]int64, lists*churnListLen)
		dir, err := rt.PNewArray(node.Name, lists+churnScratch)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetRoot(roots[g], dir); err != nil {
			t.Fatal(err)
		}
		m := muts[g]
		for l := 0; l < lists; l++ {
			var head Ref
			for k := churnListLen - 1; k >= 0; k-- {
				n, err := m.PNew(node, 0)
				if err != nil {
					t.Fatal(err)
				}
				val := int64(g)<<40 | int64(l*churnListLen+k)
				m.SetLongFast(n, fVal, val)
				if err := m.SetRefFast(n, fNext, head); err != nil {
					t.Fatal(err)
				}
				vals[g][l*churnListLen+k], head = val, n
			}
			if err := m.SetElem(dir, l, head); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Everything built so far is persisted by the first collection, which
	// moves and writes back what it keeps.
	if _, err := rt.PersistentGC(heapName); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var ops atomic.Int64
	errs := make(chan error, churnMutators+1)
	var wg sync.WaitGroup
	for g := range muts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- churnMutator(rt, muts[g], roots[g], node, lists, vals[g], g, &stop, &ops)
		}(g)
	}
	capacity := h.Geo().DataRegions() * layout.RegionSize
	go func() {
		defer stop.Store(true)
		for c := 0; c < churnCycles; c++ {
			if _, err := rt.PersistentGCConcurrent(heapName, runtime.GOMAXPROCS(0)); err != nil {
				errs <- fmt.Errorf("concurrent cycle %d: %w", c, err)
				return
			}
			if used := capacity - h.FreeBytes(); used > capacity*3/4 {
				errs <- fmt.Errorf("cycle %d left %d of %d bytes in use", c, used, capacity)
				return
			}
		}
		errs <- nil
	}()
	wg.Wait()
	for i := 0; i < churnMutators+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if ops.Load() == 0 {
		t.Fatal("no mutator op ran beside the collections")
	}
	// Each mutator ends on an object nothing names, still deferred, of a
	// class no earlier object had, so no stale bytes can pass for it: it
	// allocates until two in a row went to the bump path, past the holes
	// the collections left (a hole allocation, and a PLAB's first object,
	// persist at once). Close stops the world and makes every region top
	// exact — a durable word covering those objects — so it must settle
	// them first: the settle every pause's PrepareForCollection makes too.
	tail := MustClass("churn/Tail", nil, Long("val"))
	atTop := func(ref Ref) bool {
		off := h.OffOf(ref)
		return h.RegionTop((off-h.Geo().DataOff)/layout.RegionSize) == off+tail.SizeOf(0)
	}
	var tails []Ref
	for _, m := range muts {
		for bumped := 0; bumped < 2; {
			ref, err := m.PNew(tail, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !atTop(ref) {
				bumped = 0
				continue
			}
			bumped++
			tails = append(tails, ref)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Power off with only what was flushed, reload, walk every list.
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	for _, m := range muts {
		m.Release()
	}
	re, err := Open(Options{TrackedNVM: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.NameManager().Register(heapName, nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})); err != nil {
		t.Fatal(err)
	}
	if err := re.LoadHeap(heapName); err != nil {
		t.Fatal(err)
	}
	rh, _ := re.Heap(heapName)
	parsed := map[int]string{}
	if err := rh.ForEachObject(func(off int, k *klass.Klass, _ int) bool {
		parsed[off] = k.Name
		return true
	}); err != nil {
		t.Fatalf("reloaded heap does not parse: %v", err)
	}
	for _, ref := range tails {
		if parsed[rh.OffOf(ref)] != tail.Name {
			t.Fatalf("%#x lies below a persisted region top and is not in the image", uint64(ref))
		}
	}
	for g := range muts {
		dir, ok := re.GetRoot(roots[g])
		if !ok {
			t.Fatalf("%s lost", roots[g])
		}
		for l := 0; l < lists; l++ {
			n, err := re.GetElem(dir, l)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < churnListLen; k++ {
				if k, err := re.KlassOf(n); err != nil || k.Name != node.Name {
					t.Fatalf("%s list %d runs into %#x: %v %v", roots[g], l, uint64(n), k, err)
				}
				if got, want := re.GetLongFast(n, fVal), vals[g][l*churnListLen+k]; got != want {
					t.Fatalf("%s list %d node %d: value %#x, oracle %#x", roots[g], l, k, got, want)
				}
				n = re.GetRefFast(n, fNext)
			}
			if n != 0 {
				t.Fatalf("%s list %d is longer than %d nodes", roots[g], l, churnListLen)
			}
		}
	}
}

// churnMutator runs gc_churn's op mix on m until stop: 60 % churn (a new
// node, published in a scratch slot every other time, dropped unnamed
// otherwise), 25 % relink (a new head spliced into a list, persisted as
// obj_graph persists its creates), 15 % read (a walk checked against the
// oracle), counting each in ops. While the heap is over half full it
// waits for the collector.
func churnMutator(rt *Runtime, m *Mutator, root string, node *Class, lists int, vals []int64, g int, stop *atomic.Bool, ops *atomic.Int64) error {
	fVal, fNext := rt.MustResolveField(node, "val"), rt.MustResolveField(node, "next")
	h := m.Heap()
	capacity := h.Geo().DataRegions() * layout.RegionSize
	r := rand.New(rand.NewSource(int64(g) + 1))
	var opErr error
	for i := 0; !stop.Load(); i++ {
		if h.FreeBytes() < capacity/2 {
			runtime.Gosched()
			continue
		}
		p, l := r.Float64(), r.Intn(lists)
		val := int64(g)<<40 | 1<<32 | int64(i)
		m.Do(func() {
			dir, ok := m.GetRoot(root)
			if !ok {
				opErr = fmt.Errorf("%s lost", root)
				return
			}
			switch {
			case p < 0.60:
				n, err := m.PNew(node, 0)
				if err != nil {
					opErr = err
					return
				}
				m.SetLongFast(n, fVal, val)
				if i%2 == 0 {
					opErr = m.SetElem(dir, lists+i%churnScratch, n)
				}
			case p < 0.85:
				head, err := m.GetElem(dir, l)
				if err != nil {
					opErr = err
					return
				}
				n, err := m.PNew(node, 0)
				if err != nil {
					opErr = err
					return
				}
				m.SetLongFast(n, fVal, val)
				if opErr = m.SetRefFast(n, fNext, m.GetRefFast(head, fNext)); opErr != nil {
					return
				}
				if opErr = m.FlushObject(n); opErr != nil {
					return
				}
				if opErr = m.SetElem(dir, l, n); opErr != nil {
					return
				}
				opErr = m.FlushArrayElem(dir, l)
				vals[l*churnListLen] = val
			default:
				n, err := m.GetElem(dir, l)
				if err != nil {
					opErr = err
					return
				}
				for k := 0; k < churnWalkLen; k++ {
					if got, want := m.GetLongFast(n, fVal), vals[l*churnListLen+k]; got != want {
						opErr = fmt.Errorf("%s list %d node %d: value %#x, oracle %#x", root, l, k, got, want)
						return
					}
					n = m.GetRefFast(n, fNext)
				}
			}
		})
		if opErr != nil {
			return opErr
		}
		ops.Add(1)
	}
	return nil
}
