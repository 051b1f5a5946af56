package pheap

import (
	"slices"
	"sync"
	"testing"

	"espresso/internal/layout"
)

// recordingSink is a RemsetSink that keeps every remembered slot with the
// value the slot held when Remember ran. Refs at or above volBase count
// as volatile.
type recordingSink struct {
	h    *Heap
	mu   sync.Mutex
	got  []layout.Ref
	vals []layout.Ref
}

const volBase = layout.Ref(1) << 60

func (s *recordingSink) Remember(slot layout.Ref) {
	s.mu.Lock()
	s.got = append(s.got, slot)
	s.vals = append(s.vals, layout.Ref(s.h.GetWord(slot, 0)))
	s.mu.Unlock()
}

func (s *recordingSink) RefIsVolatile(ref layout.Ref) bool { return ref >= volBase }

// take returns and forgets what the sink was handed.
func (s *recordingSink) take() (slots, vals []layout.Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slots, vals, s.got, s.vals = s.got, s.vals, nil, nil
	return slots, vals
}

// TestStoreRefRemembersVolatileSlots: on the owned and the ownerless
// context alike, a store of a volatile value hands its slot to the sink
// at once, after the value has landed, and a store of anything else
// hands nothing; retiring a context leaves nothing to hand on.
func TestStoreRefRemembersVolatileSlots(t *testing.T) {
	h, reg := testHeap(t, Config{DataSize: 1 << 20})
	sink := &recordingSink{h: h}
	h.SetRemsetSink(sink)
	person := definePerson(t, reg)
	nameOff := layout.FieldOff(1)

	a := h.NewAllocator()
	for _, x := range []*Allocator{a, h.Ownerless()} {
		obj, err := h.Alloc(person, 0)
		if err != nil {
			t.Fatal(err)
		}
		slot := obj + layout.Ref(nameOff)
		x.StoreRef(obj, nameOff, volBase, true)
		if slots, vals := sink.take(); !slices.Equal(slots, []layout.Ref{slot}) || vals[0] != volBase {
			t.Fatalf("volatile store remembered %#x holding %#x, want %#x holding %#x", slots, vals, slot, volBase)
		}
		x.StoreRef(obj, nameOff, obj, false)
		x.StoreRef(obj, nameOff, layout.NullRef, false)
		if slots, _ := sink.take(); len(slots) != 0 {
			t.Fatalf("persistent and null stores remembered %#x", slots)
		}
	}
	a.Release()
	if slots, _ := sink.take(); len(slots) != 0 {
		t.Fatalf("Release remembered %#x", slots)
	}
}

// TestStoreRefWithoutSinkRecordsNoDeltas: a heap nobody installed a sink
// on has no remembered set: a store the caller calls volatile still
// lands, and nothing classifies as volatile.
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
		x.StoreRef(obj, layout.FieldOff(1), volBase, true)
		if got := layout.Ref(h.GetWord(obj, layout.FieldOff(1))); got != volBase {
			t.Fatalf("slot holds %#x, want %#x", uint64(got), uint64(volBase))
		}
	}
	if h.RefIsVolatile(volBase) {
		t.Fatal("a heap without a sink classified a reference as volatile")
	}
}
