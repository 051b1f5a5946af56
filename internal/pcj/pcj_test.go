package pcj

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"espresso/internal/bench"
	"espresso/internal/nvm"
)

func heap(t testing.TB) *Heap {
	t.Helper()
	return New(Config{Size: 16 << 20, Mode: nvm.Direct})
}

func TestLongRoundTrip(t *testing.T) {
	h := heap(t)
	o, err := h.NewLong(42)
	if err != nil {
		t.Fatal(err)
	}
	if h.LongValue(o) != 42 {
		t.Fatalf("value = %d", h.LongValue(o))
	}
	h.SetLongValue(o, -5)
	if h.LongValue(o) != -5 {
		t.Fatalf("value = %d", h.LongValue(o))
	}
	if h.TypeNameOf(o) != "lib.util.persistent.PersistentLong" {
		t.Fatalf("type = %q", h.TypeNameOf(o))
	}
}

func TestIntegerAndString(t *testing.T) {
	h := heap(t)
	i, _ := h.NewInteger(-123)
	if h.IntValue(i) != -123 {
		t.Fatalf("int = %d", h.IntValue(i))
	}
	s, err := h.NewString("persistent collections for java")
	if err != nil {
		t.Fatal(err)
	}
	if h.StringValue(s) != "persistent collections for java" {
		t.Fatalf("string = %q", h.StringValue(s))
	}
}

func TestTupleRefcounting(t *testing.T) {
	h := heap(t)
	a, _ := h.NewLong(1)
	b, _ := h.NewLong(2)
	tup, err := h.NewTuple(a, b)
	if err != nil {
		t.Fatal(err)
	}
	live := h.LiveObjects()
	// Dropping the caller's refs leaves the tuple owning a and b.
	h.Release(a)
	h.Release(b)
	if h.LiveObjects() != live {
		t.Fatalf("children freed while tuple still references them")
	}
	if h.LongValue(h.TupleGet(tup, 0)) != 1 {
		t.Fatal("tuple child corrupted")
	}
	// Dropping the tuple cascades.
	h.Release(tup)
	if h.LiveObjects() != live-3 {
		t.Fatalf("cascade free: live = %d, want %d", h.LiveObjects(), live-3)
	}
}

func TestRefcountBalanceNoLeaks(t *testing.T) {
	h := heap(t)
	free0 := h.FreeBytes()
	live0 := h.LiveObjects()
	for round := 0; round < 20; round++ {
		a, _ := h.NewLong(int64(round))
		b, _ := h.NewLong(int64(round * 2))
		tup, _ := h.NewTuple(a, b)
		h.Release(a)
		h.Release(b)
		h.TupleSet(tup, 0, 0) // drops a
		h.Release(tup)        // drops tuple and b
	}
	if h.LiveObjects() != live0 {
		t.Fatalf("leaked %d objects", h.LiveObjects()-live0)
	}
	if h.FreeBytes() < free0-1024 {
		t.Fatalf("allocator lost space: %d → %d", free0, h.FreeBytes())
	}
}

func TestListMatchesModel(t *testing.T) {
	h := heap(t)
	list, err := h.NewList()
	if err != nil {
		t.Fatal(err)
	}
	var model []int64
	for i := 0; i < 64; i++ {
		v := int64(i * 7)
		box, _ := h.NewLong(v)
		if err := h.ListAdd(list, box); err != nil {
			t.Fatal(err)
		}
		h.Release(box)
		model = append(model, v)
	}
	if h.ListLen(list) != len(model) {
		t.Fatalf("len = %d", h.ListLen(list))
	}
	for i, want := range model {
		if got := h.LongValue(h.ListGet(list, i)); got != want {
			t.Fatalf("elem %d = %d, want %d", i, got, want)
		}
	}
	box, _ := h.NewLong(-1)
	h.ListSet(list, 10, box)
	h.Release(box)
	if h.LongValue(h.ListGet(list, 10)) != -1 {
		t.Fatal("list set failed")
	}
}

func TestQuickMapMatchesModel(t *testing.T) {
	h := heap(t)
	f := func(seed int64, n uint8) bool {
		m, err := h.NewMap()
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[int64]int64{}
		for i := 0; i < int(n); i++ {
			k := int64(rng.Intn(40))
			v := rng.Int63()
			box, err := h.NewLong(v)
			if err != nil {
				return false
			}
			if err := h.MapPut(m, k, box); err != nil {
				return false
			}
			h.Release(box)
			model[k] = v
		}
		if h.MapLen(m) != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := h.MapGet(m, k)
			if !ok || h.LongValue(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorSplitAndReuse(t *testing.T) {
	h := heap(t)
	free0 := h.FreeBytes()
	var objs []Obj
	for i := 0; i < 100; i++ {
		o, err := h.NewLong(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for _, o := range objs {
		h.Release(o)
	}
	if h.FreeBytes() < free0-2048 {
		t.Fatalf("free space not recovered: %d → %d", free0, h.FreeBytes())
	}
}

func TestProfileRecordsAllPhases(t *testing.T) {
	h := New(Config{Size: 16 << 20, Mode: nvm.Direct})
	prof := bench.NewCounter(h.Device())
	h.SetProfile(prof)
	for i := 0; i < 1000; i++ {
		if _, err := h.NewLong(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.SetProfile(nil)
	// Each phase is held by the lines it flushed — what it cost the
	// device, the same every run — not by the wall time around it.
	lines := func(phase string) uint64 { return prof.Get(phase).Dev.FlushedLines }
	for _, phase := range []string{"Transaction", "Allocation", "Metadata", "GC", "Data"} {
		if lines(phase) == 0 {
			t.Fatalf("phase %s flushed nothing: %+v", phase, prof.Phases())
		}
	}
	// The paper's Figure 6 shape: metadata work dwarfs the payload store.
	if lines("Metadata") < lines("Data") {
		t.Fatalf("expected metadata ≥ data: %d vs %d lines", lines("Metadata"), lines("Data"))
	}
}

// TestCreateFailsWhenDirectoryFull: a create past the object directory's
// capacity is an error, not a panic, and leaves the heap as it found it —
// the transaction rolled back, the allocation returned, the log idle —
// and usable once an object is released.
func TestCreateFailsWhenDirectoryFull(t *testing.T) {
	h := New(Config{Size: 16 << 20, Mode: nvm.Direct})
	var first Obj
	for i := 0; i < h.dirCap; i++ {
		o, err := h.NewLong(int64(i))
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if i == 0 {
			first = o
		}
	}
	live, free, stats := h.LiveObjects(), h.FreeBytes(), h.Device().Stats()
	if _, err := h.NewLong(-1); !errors.Is(err, ErrDirectoryFull) {
		t.Fatalf("create into a full directory: %v, want ErrDirectoryFull", err)
	}
	if _, err := h.NewString("spilled"); !errors.Is(err, ErrDirectoryFull) {
		t.Fatalf("string create into a full directory: %v, want ErrDirectoryFull", err)
	}
	if h.LiveObjects() != live || h.FreeBytes() != free {
		t.Fatalf("failed creates left %d live objects and %d free bytes, want %d and %d",
			h.LiveObjects(), h.FreeBytes(), live, free)
	}
	if d := h.Device().Stats().Sub(stats); d.Fences == 0 || h.dev.ReadU64(h.logOff) != 0 {
		t.Fatalf("rollback fenced %d times and left the log active word at %d", d.Fences, h.dev.ReadU64(h.logOff))
	}
	h.Release(first)
	if o, err := h.NewLong(7); err != nil || h.LongValue(o) != 7 {
		t.Fatalf("create after a release: %v", err)
	}
}
