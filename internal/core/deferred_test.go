package core

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// A PNew's header is deferred (pheap's alloc.go) until a covering flush, a
// store naming the object, or its allocator's next allocation settles it.
// These tests cover the two naming stores core adds to pheap's own: a
// store into another heap, and a store by a mutator that does not own the
// object's PLAB.

// parsedObjects loads a flushed-only crash image of h and returns the
// parsed heap and the offsets of its objects by klass name; the image
// must parse.
func parsedObjects(t *testing.T, h *pheap.Heap) (*pheap.Heap, map[int]string) {
	t.Helper()
	re, err := pheap.Load(nvm.FromImage(h.Device().CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	parsed := map[int]string{}
	if err := re.ForEachObject(func(off int, k *klass.Klass, _ int) bool {
		parsed[off] = k.Name
		return true
	}); err != nil {
		t.Fatalf("crash image does not parse: %v", err)
	}
	return re, parsed
}

// TestCrossHeapStoreSettlesInValueHeap: a store into heap A that names a
// fresh object of heap B settles the object's header in B — A's StoreRef
// knows only A's deferred headers — on either receiver. The settle is B's
// one line and one fence, and a crash right after the slot's flush finds
// the object in B's image.
func TestCrossHeapStoreSettlesInValueHeap(t *testing.T) {
	for _, receiver := range []string{"mutator", "runtime"} {
		t.Run(receiver, func(t *testing.T) {
			// The mutator is attached to A; the runtime allocates in B.
			rt, hb, m, node, nextF := otherHeapWorld(t, nvm.Tracked)
			a := &m.Accessor
			if receiver == "runtime" {
				a = &rt.Accessor
			}
			holder, err := m.PNew(node, 0) // in A
			if err != nil {
				t.Fatal(err)
			}
			if err := m.SetRoot("holder", holder); err != nil {
				t.Fatal(err)
			}
			// B's PLAB persists its first object at once; the second is
			// the fresh one, its header deferred.
			if _, err := rt.PNew(node, 0); err != nil {
				t.Fatal(err)
			}
			fresh, err := rt.PNew(node, 0)
			if err != nil {
				t.Fatal(err)
			}
			before := hb.Device().Stats()
			if err := a.SetRefFast(holder, nextF, fresh); err != nil {
				t.Fatal(err)
			}
			if d := hb.Device().Stats().Sub(before); d.FlushedLines != 1 || d.Fences != 1 {
				t.Fatalf("the store cost heap B %d lines / %d fences, want its header's 1 / 1", d.FlushedLines, d.Fences)
			}
			if err := a.FlushField(holder, "next"); err != nil {
				t.Fatal(err)
			}
			_, parsed := parsedObjects(t, hb)
			if parsed[hb.OffOf(fresh)] != node.Name {
				t.Fatalf("heap A's durable slot names %#x, which is not in heap B's crash image", uint64(fresh))
			}
		})
	}
}

// TestMutatorsNameEachOthersFreshObjects: two mutators, round after
// round, both allocate a node — its header deferred — hand it to the
// other, and name the node they were handed from a rooted holder of their
// own, flushing the slot. Neither owner has allocated again, so only the
// naming store, issued by the other mutator, can have settled the header:
// a crash image taken when both have flushed must hold both named nodes.
// Run it under -race: the two mutators allocate, settle and name at the
// same time, and share nothing but the deferred-header words.
func TestMutatorsNameEachOthersFreshObjects(t *testing.T) {
	const rounds = 100
	rt := newRT(t, Config{PJHDataSize: 2 << 20})
	h, err := rt.CreateHeap("peers", 0)
	if err != nil {
		t.Fatal(err)
	}
	// One cache line per node: a settle's write-back of a node shares no
	// line with anything its owner writes after handing it over.
	node := klass.MustInstance("peers/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "peer", Type: layout.FTRef, RefKlass: "peers/Node"},
		klass.Field{Name: "p0", Type: layout.FTLong},
		klass.Field{Name: "p1", Type: layout.FTLong},
		klass.Field{Name: "p2", Type: layout.FTLong},
		klass.Field{Name: "p3", Type: layout.FTLong},
	)
	idF, peerF := rt.MustResolveField(node, "id"), rt.MustResolveField(node, "peer")
	var (
		muts    [2]*Mutator
		holders [2]layout.Ref
		handed  [2]chan layout.Ref // a node for mutator g to name
		next    [2]chan struct{}   // mutator g may start its next round
	)
	for g := range muts {
		if muts[g], err = rt.NewMutator(); err != nil {
			t.Fatal(err)
		}
		defer muts[g].Release()
		// The PLAB's first object persists its header at once: the holder.
		if holders[g], err = muts[g].PNew(node, 0); err != nil {
			t.Fatal(err)
		}
		if err := muts[g].SetRoot(fmt.Sprintf("holder-%d", g), holders[g]); err != nil {
			t.Fatal(err)
		}
		handed[g], next[g] = make(chan layout.Ref, 1), make(chan struct{})
	}
	named := make(chan error, len(muts))
	for g := range muts {
		go func(g int) {
			m := muts[g]
			for i := 0; i < rounds; i++ {
				x, err := m.PNew(node, 0)
				if err != nil {
					named <- err
					return
				}
				m.SetLongFast(x, idF, int64(i))
				handed[1-g] <- x // and not written again
				if err = m.SetRefFast(holders[g], peerF, <-handed[g]); err == nil {
					err = m.FlushField(holders[g], "peer")
				}
				named <- err
				if err != nil {
					return
				}
				<-next[g]
			}
		}(g)
	}
	for i := 0; i < rounds; i++ {
		for range muts {
			if err := <-named; err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
		re, parsed := parsedObjects(t, h)
		for g := range muts {
			holder, ok := re.GetRoot(fmt.Sprintf("holder-%d", g))
			if !ok {
				t.Fatalf("round %d: holder-%d lost", i, g)
			}
			if p := layout.Ref(re.GetWord(holder, peerF.Offset())); parsed[re.OffOf(p)] != node.Name {
				t.Fatalf("round %d: holder-%d names %#x, which is not a node of the crash image", i, g, uint64(p))
			}
		}
		if i < rounds-1 {
			for g := range muts {
				next[g] <- struct{}{}
			}
		}
	}
}
