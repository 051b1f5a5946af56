package core

import (
	"sort"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
)

// remsetStress is the remembered set's correctness stress: goroutines
// churn NVM→volatile and NVM→NVM reference stores, each over slots of
// its own, and after every round the set as NVMToVolSlots reads it must
// equal the single-threaded oracle exactly — the slots whose last store
// was a volatile reference — across collections that prune the set,
// patch its slots and move the objects owning them.
//
// All nodes live in one rooted object array, all volatile targets in
// another persistent array (the "vols" root), so compaction can move
// nodes and volatile scavenges can move targets while every consumer
// re-derives addresses through roots. The vols array's own element slots
// hold volatile refs, so they are permanent members of the set.
type remsetStress struct {
	rt   *Runtime
	refF FieldRef
	// lastVol is the oracle: per node, whether the most recent store to
	// its ref slot was a volatile reference. Written only by the owning
	// goroutine during a round, read only between rounds (the WaitGroup is
	// the happens-before edge).
	lastVol [remsetGoroutines][remsetNodesPerG]bool
}

const (
	remsetGoroutines = 6
	remsetNodesPerG  = 24
	remsetRounds     = 6
	remsetOpsPerG    = 700 // stores per goroutine and round
)

func newRemsetStress(t *testing.T) *remsetStress {
	t.Helper()
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
	s := &remsetStress{rt: rt, refF: rt.MustResolveField(node, "ref")}
	arr, err := rt.PNew(rt.Reg.ObjArray("remset/Node"), remsetGoroutines*remsetNodesPerG)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < remsetGoroutines*remsetNodesPerG; i++ {
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
	vh, err := rt.PNew(rt.Reg.ObjArray("java/lang/Object"), remsetGoroutines)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < remsetGoroutines; g++ {
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
	return s
}

// store is op i of goroutine g in the round, through a: node j of g's
// share gets g's volatile target every third op, its next node
// otherwise. Addresses are re-derived through the roots, so a must hold
// one safepoint interval across the call whenever collections may move
// objects meanwhile.
func (s *remsetStress) store(a *Accessor, g, round, i int) error {
	j := (round*remsetOpsPerG + i) % remsetNodesPerG
	toVol := i%3 == 2
	arrRef, _ := a.GetRoot("remset/nodes")
	n, err := a.GetElem(arrRef, g*remsetNodesPerG+j)
	if err != nil {
		return err
	}
	var val layout.Ref
	if toVol {
		vhRef, _ := a.GetRoot("remset/vols")
		val, err = a.GetElem(vhRef, g)
	} else {
		val, err = a.GetElem(arrRef, g*remsetNodesPerG+(j+1)%remsetNodesPerG)
	}
	if err != nil {
		return err
	}
	if err := a.SetRefFast(n, s.refF, val); err != nil {
		return err
	}
	s.lastVol[g][j] = toVol
	return nil
}

// round runs one round of stores on every goroutine, op running each
// store, and fails the test on the first error.
func (s *remsetStress) round(t *testing.T, round int, op func(g, i int) error) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < remsetGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < remsetOpsPerG; i++ {
				if err := op(g, i); err != nil {
					t.Errorf("goroutine %d round %d op %d: %v", g, round, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// verify compares the set with the oracle.
func (s *remsetStress) verify(t *testing.T, when string, round int) {
	t.Helper()
	rt := s.rt
	arrRef, ok := rt.GetRoot("remset/nodes")
	if !ok {
		t.Fatalf("%s round %d: node array root missing", when, round)
	}
	vhRef, _ := rt.GetRoot("remset/vols")
	var expected []layout.Ref
	for g := 0; g < remsetGoroutines; g++ {
		expected = append(expected, vhRef+layout.Ref(layout.ElemOff(layout.FTRef, g)))
		for j := 0; j < remsetNodesPerG; j++ {
			if !s.lastVol[g][j] {
				continue
			}
			n, err := rt.GetElem(arrRef, g*remsetNodesPerG+j)
			if err != nil {
				t.Fatalf("%s round %d: %v", when, round, err)
			}
			expected = append(expected, n+layout.Ref(s.refF.Offset()))
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

// settle runs the end of a round with the stores quiesced: one more
// persistent collection (which prunes the set, and whose compaction may
// move every node), then a volatile scavenge (which consumes the set as
// roots and patches the moved targets), each followed by the oracle
// comparison.
func (s *remsetStress) settle(t *testing.T, round int) {
	t.Helper()
	if _, err := s.rt.PersistentGC("remset"); err != nil {
		t.Fatalf("round %d: %v", round, err)
	}
	s.verify(t, "after a cycle", round)
	if err := s.rt.MinorGC(); err != nil {
		t.Fatalf("round %d minor GC: %v", round, err)
	}
	s.verify(t, "after volatile scavenge", round)
}

// TestRemsetGCStress runs the stress through mutators, each store inside
// its mutator's Do, while a collector goroutine runs back-to-back
// persistent collections (each pruning the set with the world stopped)
// beside the round. Runs under -race in CI.
func TestRemsetGCStress(t *testing.T) {
	s := newRemsetStress(t)
	rt := s.rt
	var muts [remsetGoroutines]*Mutator
	for g := range muts {
		var err error
		if muts[g], err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
		defer muts[g].Release()
	}
	for round := 0; round < remsetRounds; round++ {
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
		s.round(t, round, func(g, i int) (err error) {
			m := muts[g]
			m.Do(func() { err = s.store(&m.Accessor, g, round, i) })
			return err
		})
		close(stopGC)
		if err := <-gcDone; err != nil {
			t.Fatalf("round %d GC: %v", round, err)
		}
		s.settle(t, round)
	}
	// A final stop-the-world collection must see the same set.
	if _, err := rt.PersistentGC("remset"); err != nil {
		t.Fatal(err)
	}
	s.verify(t, "after final STW GC", remsetRounds)
}

// TestRemsetOwnerlessStress runs the stress through the Runtime: every
// goroutine's stores go through the heap's one ownerless context, which
// nothing serializes, and add to the set beside a reader goroutine that
// filters it over and over. The Runtime's accessors are one safepoint
// interval each, so no collection runs inside a round (it could move a
// node between a store's lookups); each round ends in the collections.
// Runs under -race in CI.
func TestRemsetOwnerlessStress(t *testing.T) {
	s := newRemsetStress(t)
	rt := s.rt
	for round := 0; round < remsetRounds; round++ {
		stop := make(chan struct{})
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := len(rt.NVMToVolSlots()); n > remsetGoroutines*(remsetNodesPerG+1) {
					t.Errorf("round %d: remset reports %d slots, more than there are", round, n)
					return
				}
			}
		}()
		s.round(t, round, func(g, i int) error { return s.store(&rt.Accessor, g, round, i) })
		close(stop)
		<-readerDone
		s.settle(t, round)
	}
}
