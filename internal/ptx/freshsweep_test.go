package ptx_test

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pcollections"
	"espresso/internal/pheap"
)

// freshKeys is how many keys the fresh-object workload puts.
const freshKeys = 3

// freshWorld is a heap with pcollections' classes, a manager and a rooted
// empty map on it: the state before the workload.
func freshWorld(t *testing.T) *pcollections.World {
	t.Helper()
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 1 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcollections.NewWorld(h)
	if err != nil {
		t.Fatal(err)
	}
	m, err := w.NewMap(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("fresh/map", m); err != nil {
		t.Fatal(err)
	}
	h.PersistTops()
	return w
}

// freshRun is the workload: every transaction in it stores into an object
// allocated just before it — a list, then per key a box, a tuple of it and
// the map entry a fresh key puts — so each logs words of an object whose
// header the allocation left deferred.
func freshRun(w *pcollections.World) error {
	m, _ := w.H.GetRoot("fresh/map")
	list, err := w.NewList(4)
	if err != nil {
		return err
	}
	if err := w.H.SetRoot("fresh/list", list); err != nil {
		return err
	}
	for k := int64(0); k < freshKeys; k++ {
		box, err := w.NewLong(k)
		if err != nil {
			return err
		}
		tup, err := w.NewTuple(box, box)
		if err != nil {
			return err
		}
		if err := w.MapPut(m, k, tup); err != nil {
			return err
		}
		if err := w.ListAdd(list, tup); err != nil {
			return err
		}
	}
	return nil
}

// checkFreshImage recovers img — Load, then a manager that rolls back the
// transaction the crash cut — and requires the heap to parse, and every
// object reachable from the roots to be a parsed object of its class: the
// map's entries, the tuples they and the list hold, the boxes in those.
// It returns how many keys the map holds.
func checkFreshImage(t *testing.T, tag string, img []byte) int {
	t.Helper()
	re := reload(t, tag, img)
	parsed := map[int]string{}
	if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		parsed[off] = k.Name
		return true
	}); err != nil {
		t.Fatalf("%s: recovered heap does not parse: %v", tag, err)
	}
	w, err := pcollections.NewWorld(re)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	is := func(what string, ref layout.Ref, class string) {
		t.Helper()
		if got := parsed[re.OffOf(ref)]; got != class {
			t.Fatalf("%s: %s %#x is %q in the parse, want a %s", tag, what, uint64(ref), got, class)
		}
	}
	tuple := func(what string, tup layout.Ref) {
		t.Helper()
		is(what, tup, "espresso/PTuple2")
		for i := 0; i < 2; i++ {
			is(fmt.Sprintf("%s field %d", what, i), w.TupleGet(tup, i), "espresso/PLong")
		}
	}
	m, ok := re.GetRoot("fresh/map")
	if !ok {
		t.Fatalf("%s: map root lost", tag)
	}
	is("map", m, "espresso/PHashMap")
	found := 0
	for k := int64(0); k < freshKeys; k++ {
		if tup, ok := w.MapGet(m, k); ok {
			found++
			tuple(fmt.Sprintf("key %d's value", k), tup)
			if got := w.LongValue(w.TupleGet(tup, 0)); got != k {
				t.Fatalf("%s: key %d's box holds %d", tag, k, got)
			}
		}
	}
	if w.MapLen(m) != found {
		t.Fatalf("%s: map size %d, %d keys found", tag, w.MapLen(m), found)
	}
	if list, ok := re.GetRoot("fresh/list"); ok {
		is("list", list, "espresso/PArrayList")
		for i := 0; i < w.ListLen(list); i++ {
			tup, err := w.ListGet(list, i)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			tuple(fmt.Sprintf("list element %d", i), tup)
		}
	}
	return found
}

// TestCrashSweepFreshObjectTx crashes transactions on freshly allocated
// objects — NewList, NewLong, NewTuple, a MapPut of a fresh key — after
// every flush, under every crash policy, and recovers each image. An undo
// record names the words it covers, and recovery writes the before-image
// back through it, so the object's header must be durable before the
// record is: had the allocation's deferred header not been settled first,
// Load would plug a filler where the object was and the rollback would
// store over the filler's length word.
func TestCrashSweepFreshObjectTx(t *testing.T) {
	images := 0
	for k := uint64(1); ; k++ {
		w := freshWorld(t)
		dev := w.H.Device()
		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error { return freshRun(w) })
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for _, p := range sweepPolicies {
			checkFreshImage(t, fmt.Sprintf("after flush %d %s", k, p.name), dev.CrashImage(p.policy, p.seed))
			images++
		}
		if !crashed {
			if n := checkFreshImage(t, "done", dev.CrashImage(nvm.CrashFlushedOnly, 0)); n != freshKeys {
				t.Fatalf("completed run: %d keys recovered, want %d", n, freshKeys)
			}
			break
		}
	}
	t.Logf("%d crash images", images)
}
