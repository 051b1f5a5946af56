package pheap

import (
	"sort"
	"sync"
	"testing"

	"espresso/internal/layout"
)

// recordingSink is a RemsetSink that keeps what it is handed. Refs at or
// above volBase count as volatile.
type recordingSink struct {
	mu      sync.Mutex
	batches [][]RemsetDelta
}

const volBase = layout.Ref(1) << 60

func (s *recordingSink) PublishRemsetDeltas(ds []RemsetDelta) {
	s.mu.Lock()
	s.batches = append(s.batches, append([]RemsetDelta(nil), ds...))
	s.mu.Unlock()
}

func (s *recordingSink) RefIsVolatile(ref layout.Ref) bool { return ref >= volBase }

// slots flattens and forgets the published batches.
func (s *recordingSink) slots() []layout.Ref {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []layout.Ref
	for _, b := range s.batches {
		for _, d := range b {
			out = append(out, d.Slot)
		}
	}
	s.batches = nil
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestRemsetDeltaLifecycle follows the barrier's delta buffers through
// the life of their allocators: nothing is published before a
// publication point, deltas pending at Release are published by it, an
// allocator registered later is drained by some shard, and every delta
// is published exactly once.
func TestRemsetDeltaLifecycle(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	sink := &recordingSink{}
	h.SetRemsetSink(sink)
	person := definePerson(t, reg)
	nameOff := layout.FieldOff(1)

	var holders [3]layout.Ref
	for i := range holders {
		var err error
		if holders[i], err = h.Alloc(person, 0); err != nil {
			t.Fatal(err)
		}
	}

	a1, a2 := h.NewAllocator(), h.NewAllocator()
	a1.StoreRef(holders[0], nameOff, layout.NullRef, false)
	a2.StoreRef(holders[1], nameOff, volBase, true)
	if got := sink.slots(); len(got) != 0 {
		t.Fatalf("deltas published before any publication point: %v", got)
	}
	a1.Release() // its delta must be published
	if got, want := sink.slots(), []layout.Ref{holders[0] + layout.Ref(nameOff)}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("Release published %v, want %v", got, want)
	}
	a3 := h.NewAllocator() // registered after the first stores
	a3.StoreRef(holders[2], nameOff, layout.NullRef, false)

	const workers = 2
	for w := 0; w < workers; w++ {
		h.DrainBarrierShard(w, workers)
	}
	want := []layout.Ref{holders[1] + layout.Ref(nameOff), holders[2] + layout.Ref(nameOff)}
	if got := sink.slots(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("drain published %v, want %v", got, want)
	}
	h.DrainBarrierShard(0, 1)
	if got := sink.slots(); len(got) != 0 {
		t.Fatalf("second drain published %v", got)
	}
}

// TestStoreRefWithoutSinkRecordsNoDeltas: a heap nobody installed a sink
// on has no remembered set, and its stores buffer nothing for one.
func TestStoreRefWithoutSinkRecordsNoDeltas(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	person := definePerson(t, reg)
	obj, err := h.Alloc(person, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := h.NewAllocator()
	defer a.Release()
	for _, x := range []*Allocator{a, h.Ownerless()} {
		x.StoreRef(obj, layout.FieldOff(1), obj, false)
		if len(x.deltas) != 0 {
			t.Fatalf("%d deltas buffered on a heap without a sink", len(x.deltas))
		}
	}
	if got := layout.Ref(h.GetWord(obj, layout.FieldOff(1))); got != obj {
		t.Fatalf("slot holds %#x, want %#x", uint64(got), uint64(obj))
	}
}
