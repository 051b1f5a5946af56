package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/pgc"
	"espresso/internal/pindex"
)

// TestSafepointHandshakeStress is the owner-biased safepoint's
// correctness stress. Every kind of safepoint interval runs at once:
//
//   - mutators pinning their own slots, per accessor (on a humongous,
//     hence never-moved, array so a ref can be held between intervals)
//     and per Do block (churning a rooted chain through PNew and the
//     write barrier);
//   - an index served through the ownerless SafepointPin;
//   - a goroutine attaching and releasing mutators, so slots register and
//     retire while stops are in progress, sometimes inside a Do;
//   - a collector running back-to-back collections. Every other cycle
//     it drives the same stop/collect/start sequence as PersistentGC
//     by hand so it can raise a flag for exactly the paused window.
//
// No Do block may ever observe the flag, every chain and index entry
// must survive intact, and the test ends by joining every goroutine: a
// lost handshake deadlocks it (the -timeout is the verdict), as does a
// Release that cannot finish while a stop is waiting on it.
func TestSafepointHandshakeStress(t *testing.T) {
	rt, err := NewRuntime(Config{PJHDataSize: 48 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("sp", 0)
	if err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("sp/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "sp/Node"},
	)
	idF := rt.MustResolveField(node, "id")
	nextF := rt.MustResolveField(node, "next")
	arrK := rt.Reg.ObjArray(node.Name)

	const (
		mutators  = 4
		iters     = 200 // per mutator, at least; they also outlast minCycles collections
		minCycles = 25
		chainLen  = 8
		pinned    = 20_000 // elements: past pheap.HugeThreshold, so the array never moves
		keys      = 256
	)
	ix, err := pindex.Open(h, rt.SafepointPinner(), "sp/index", pindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seed := ix.NewCtx()
	for k := int64(0); k < keys; k++ {
		if err := seed.Put(k, layout.NullRef); err != nil {
			t.Fatal(err)
		}
	}
	seed.Release()

	var (
		paused   atomic.Bool // raised by the collector inside its pauses
		done     = make(chan struct{})
		workers  sync.WaitGroup // mutators: their exit ends the test
		helpers  sync.WaitGroup // collector, churner, index reader: run until done
		gcCycles atomic.Int64
	)
	observe := func(who string) {
		if paused.Load() {
			t.Errorf("%s ran inside a collector pause", who)
		}
	}

	// Collector.
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				_, err = rt.PersistentGC("sp")
			} else {
				rt.gcMu.Lock()
				rt.lockWorldCounted()
				paused.Store(true)
				_, err = pgc.Collect(h, persRoots{rt, h})
				paused.Store(false)
				rt.world.Start()
				rt.gcMu.Unlock()
			}
			if err != nil {
				t.Errorf("collection %d: %v", i, err)
				gcCycles.Store(minCycles) // release the mutators
				return
			}
			gcCycles.Add(1)
		}
	}()

	// Mutator churn: slots come and go under the collector's feet.
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			m, err := rt.NewMutator()
			if err != nil {
				t.Errorf("churn: %v", err)
				return
			}
			if _, err := m.PNew(node, 0); err != nil {
				t.Errorf("churn pnew: %v", err)
			}
			if i%3 == 0 {
				// Retiring the slot inside its own interval must neither
				// deadlock against a stop nor let one through early.
				m.Do(func() {
					observe("churn Do")
					m.Release()
					observe("churn Do after Release")
				})
			} else {
				m.Release()
			}
		}
	}()

	// Index reader through the ownerless pin.
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		c := ix.NewCtx()
		defer c.Release()
		for k := int64(0); ; k = (k + 1) % keys {
			select {
			case <-done:
				return
			default:
			}
			if _, ok := c.Get(k); !ok {
				t.Errorf("index lost key %d", k)
				return
			}
			if k%16 == 0 {
				if err := c.Put(keys+k, layout.NullRef); err != nil {
					t.Errorf("index put: %v", err)
					return
				}
			}
		}
	}()

	next := make([]int64, mutators) // id of each chain's head at the end
	for g := 0; g < mutators; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			m, err := rt.NewMutator()
			if err != nil {
				t.Errorf("mutator %d: %v", g, err)
				return
			}
			defer m.Release()
			chain := "sp/chain" + string(rune('A'+g))
			var arr layout.Ref
			m.Do(func() {
				if arr, err = m.PNew(arrK, pinned); err == nil {
					err = m.SetRoot("sp/pinned"+string(rune('A'+g)), arr)
				}
			})
			if err != nil {
				t.Errorf("mutator %d setup: %v", g, err)
				return
			}
			for i := 0; i < iters || gcCycles.Load() < minCycles; i++ {
				id := int64(g)<<32 | int64(i)
				// One interval per accessor, on the array no collection moves.
				slot := i % pinned
				if err := m.SetElem(arr, slot, arr); err != nil {
					t.Errorf("mutator %d SetElem: %v", g, err)
					return
				}
				if got, err := m.GetElem(arr, slot); err != nil || got != arr {
					t.Errorf("mutator %d GetElem = %#x, %v; want %#x", g, got, err, arr)
					return
				}
				if err := m.FlushArrayElem(arr, slot); err != nil {
					t.Errorf("mutator %d FlushArrayElem: %v", g, err)
					return
				}
				// One interval for a whole sequence: push a node, trim the
				// chain to chainLen (the cut-off tail is the garbage the
				// collector moves everything else over).
				m.Do(func() {
					observe("Do")
					head, _ := m.GetRoot(chain)
					n, err := m.PNew(node, 0)
					if err != nil {
						t.Errorf("mutator %d pnew: %v", g, err)
						return
					}
					m.SetLongFast(n, idF, id)
					if err := m.SetRefFast(n, nextF, head); err != nil {
						t.Errorf("mutator %d link: %v", g, err)
						return
					}
					if err := m.FlushObject(n); err != nil {
						t.Errorf("mutator %d flush: %v", g, err)
						return
					}
					if err := m.SetRoot(chain, n); err != nil {
						t.Errorf("mutator %d root: %v", g, err)
						return
					}
					p := n
					for k := 1; k < chainLen && p != layout.NullRef; k++ {
						if want := id - int64(k); i >= k && m.GetLongFast(m.GetRefFast(p, nextF), idF) != want {
							t.Errorf("mutator %d: node %d behind head %d is not %d", g, k, id, want)
							return
						}
						p = m.GetRefFast(p, nextF)
					}
					if p != layout.NullRef {
						if err := m.SetRefFast(p, nextF, layout.NullRef); err != nil {
							t.Errorf("mutator %d trim: %v", g, err)
						}
					}
					observe("Do end")
				})
				next[g] = id
			}
		}(g)
	}

	workers.Wait()
	close(done)
	helpers.Wait()

	// Everything quiescent: the chains and the index are what the
	// mutators left.
	for g := 0; g < mutators; g++ {
		ref, ok := rt.GetRoot("sp/chain" + string(rune('A'+g)))
		if !ok {
			t.Fatalf("chain %d lost its root", g)
		}
		for k := 0; k < chainLen; k++ {
			if got, want := rt.GetLongFast(ref, idF), next[g]-int64(k); got != want {
				t.Fatalf("chain %d node %d: id %d, want %d", g, k, got, want)
			}
			ref = rt.GetRefFast(ref, nextF)
		}
		if ref != layout.NullRef {
			t.Fatalf("chain %d longer than %d", g, chainLen)
		}
	}
	c := ix.NewCtx()
	defer c.Release()
	for k := int64(0); k < keys; k++ {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("index lost key %d", k)
		}
	}
}
