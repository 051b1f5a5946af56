package pcollections

import (
	"math/rand"
	"testing"
	"testing/quick"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
)

func world(t testing.TB) *World {
	t.Helper()
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 16 << 20, Mode: nvm.Direct})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(h)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLongBox(t *testing.T) {
	w := world(t)
	b, err := w.NewLong(42)
	if err != nil {
		t.Fatal(err)
	}
	if w.LongValue(b) != 42 {
		t.Fatalf("value = %d", w.LongValue(b))
	}
	if err := w.SetLongValue(b, -7); err != nil {
		t.Fatal(err)
	}
	if w.LongValue(b) != -7 {
		t.Fatalf("value = %d", w.LongValue(b))
	}
}

func TestTuple(t *testing.T) {
	w := world(t)
	a, _ := w.NewLong(1)
	b, _ := w.NewLong(2)
	tup, err := w.NewTuple(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if w.TupleGet(tup, 0) != a || w.TupleGet(tup, 1) != b {
		t.Fatal("tuple contents wrong")
	}
	c, _ := w.NewLong(3)
	if err := w.TupleSet(tup, 1, c); err != nil {
		t.Fatal(err)
	}
	if w.TupleGet(tup, 1) != c {
		t.Fatal("tuple set failed")
	}
	// Different arities coexist.
	t3, err := w.NewTuple(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if w.TupleGet(t3, 2) != c {
		t.Fatal("3-tuple contents wrong")
	}
}

func TestListGrowth(t *testing.T) {
	w := world(t)
	list, err := w.NewList(4)
	if err != nil {
		t.Fatal(err)
	}
	var boxes []layout.Ref
	for i := 0; i < 100; i++ {
		b, _ := w.NewLong(int64(i))
		boxes = append(boxes, b)
		if err := w.ListAdd(list, b); err != nil {
			t.Fatal(err)
		}
	}
	if w.ListLen(list) != 100 {
		t.Fatalf("len = %d", w.ListLen(list))
	}
	for i, want := range boxes {
		got, err := w.ListGet(list, i)
		if err != nil || got != want {
			t.Fatalf("elem %d = %#x err=%v", i, uint64(got), err)
		}
	}
	if _, err := w.ListGet(list, 100); err == nil {
		t.Fatal("out-of-range get accepted")
	}
	b, _ := w.NewLong(999)
	if err := w.ListSet(list, 50, b); err != nil {
		t.Fatal(err)
	}
	got, _ := w.ListGet(list, 50)
	if w.LongValue(got) != 999 {
		t.Fatal("list set failed")
	}
}

func TestQuickMapMatchesModel(t *testing.T) {
	w := world(t)
	f := func(seed int64, n uint8) bool {
		m, err := w.NewMap(16)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[int64]int64{}
		for i := 0; i < int(n); i++ {
			k := int64(rng.Intn(50))
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Int63()
				box, err := w.NewLong(v)
				if err != nil {
					return false
				}
				if err := w.MapPut(m, k, box); err != nil {
					return false
				}
				model[k] = v
			case 2:
				present, err := w.MapRemove(m, k)
				if err != nil {
					return false
				}
				_, inModel := model[k]
				if present != inModel {
					return false
				}
				delete(model, k)
			}
		}
		if w.MapLen(m) != len(model) {
			return false
		}
		for k, v := range model {
			box, ok := w.MapGet(m, k)
			if !ok || w.LongValue(box) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectionsSurviveReload(t *testing.T) {
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 4 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(h)
	if err != nil {
		t.Fatal(err)
	}
	list, _ := w.NewList(4)
	for i := 0; i < 10; i++ {
		b, _ := w.NewLong(int64(i * 11))
		w.ListAdd(list, b)
	}
	if err := h.SetRoot("mylist", list); err != nil {
		t.Fatal(err)
	}
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	re, err := pheap.Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(re)
	if err != nil {
		t.Fatal(err)
	}
	list2, ok := re.GetRoot("mylist")
	if !ok {
		t.Fatal("list root lost")
	}
	if w2.ListLen(list2) != 10 {
		t.Fatalf("reloaded len = %d", w2.ListLen(list2))
	}
	for i := 0; i < 10; i++ {
		b, err := w2.ListGet(list2, i)
		if err != nil || w2.LongValue(b) != int64(i*11) {
			t.Fatalf("reloaded elem %d wrong", i)
		}
	}
}

// TestLegacyCollectionsSafeAcrossGC mutates the map and list through
// the transactional stores, collects, and verifies nothing is lost or
// corrupted by the cycle's compaction.
func TestLegacyCollectionsSafeAcrossGC(t *testing.T) {
	w := world(t)
	h := w.H
	m, err := w.NewMap(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("map", m); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 64; k++ {
		b, _ := w.NewLong(k * 3)
		if err := w.MapPut(m, k, b); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites + removals: the overwritten and removed boxes become
	// garbage the collection reclaims, the new ones must survive it.
	for k := int64(0); k < 32; k++ {
		b, _ := w.NewLong(k * 1000)
		if err := w.MapPut(m, k, b); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(48); k < 64; k++ {
		if _, err := w.MapRemove(m, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pgc.Collect(h, pgc.NoRoots{}); err != nil {
		t.Fatal(err)
	}
	m, _ = h.GetRoot("map") // compaction may have moved everything
	for k := int64(0); k < 64; k++ {
		b, ok := w.MapGet(m, k)
		switch {
		case k < 32:
			if !ok || w.LongValue(b) != k*1000 {
				t.Fatalf("key %d: ok=%v val=%d, want %d", k, ok, w.LongValue(b), k*1000)
			}
		case k < 48:
			if !ok || w.LongValue(b) != k*3 {
				t.Fatalf("key %d: ok=%v, want untouched %d", k, ok, k*3)
			}
		default:
			if ok {
				t.Fatalf("removed key %d still present", k)
			}
		}
	}
	if w.MapLen(m) != 48 {
		t.Fatalf("map len = %d, want 48", w.MapLen(m))
	}
}
