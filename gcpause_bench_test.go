package espresso_test

import (
	"testing"
	"time"

	"espresso"
	"espresso/internal/layout"
)

// BenchmarkPersistentGC is one stop-the-world collection
// (Runtime.PersistentGC) at gc_churn's shape (benchmark/gc_churn.go):
// 200 k live nodes in rooted lists of 100, in a 48 MB heap that is
// collected each time it is 60 % full. Between collections, with the timer
// stopped, the heap is refilled to the trigger with dead nodes, and one
// allocation in eight replaces the head of a list, so each cycle has live
// objects to move as well as garbage to free. pause-ms and mark-ms are
// GCResult's PauseTime and MarkTime per collection: the host-CPU cost of a
// cycle, which the marking pool spreads over GOMAXPROCS workers.
// devlines/op and devfences/op are a collection's flushed lines and
// fences (GCResult's DeviceStats): the mark bitmap's changed lines, the
// evacuation windows' destinations, and a handful of fences a cycle.
func BenchmarkPersistentGC(b *testing.B) {
	const (
		heapName = "gcbench"
		live     = 200_000
		listLen  = 100
		fill     = 0.60
	)
	rt, err := espresso.Open(espresso.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.CreateHeap(heapName, 48<<20); err != nil {
		b.Fatal(err)
	}
	h, _ := rt.Heap(heapName)
	node := espresso.MustClass("gcbench/Node", nil,
		espresso.Long("val"), espresso.Long("aux"),
		espresso.RefTo("next", "gcbench/Node"), espresso.RefTo("peer", "gcbench/Node"))
	fVal, fNext := rt.MustResolveField(node, "val"), rt.MustResolveField(node, "next")
	newNode := func(val int64, next layout.Ref) layout.Ref {
		n, err := rt.PNew(node)
		if err != nil {
			b.Fatal(err)
		}
		rt.SetLongFast(n, fVal, val)
		if err := rt.SetRefFast(n, fNext, next); err != nil {
			b.Fatal(err)
		}
		return n
	}

	const lists = live / listLen
	dir, err := rt.PNewArray(node.Name, lists)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.SetRoot("gcbench/dir", dir); err != nil {
		b.Fatal(err)
	}
	for l := 0; l < lists; l++ {
		var head layout.Ref
		for k := 0; k < listLen; k++ {
			head = newNode(int64(k), head)
		}
		if err := rt.SetElem(dir, l, head); err != nil {
			b.Fatal(err)
		}
	}
	collect := func() espresso.GCResult {
		res, err := rt.PersistentGC(heapName)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	collect() // compacts the freshly built heap; measured cycles see the steady state

	capacity := float64(h.Geo().DataRegions() * layout.RegionSize)
	var pause, mark time.Duration
	var lines, fences uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// The array may have moved in the last collection.
		dir, _ = rt.GetRoot("gcbench/dir")
		for j := 0; 1-float64(h.FreeBytes())/capacity < fill; j++ {
			if j%8 != 0 {
				newNode(int64(j), layout.NullRef)
				continue
			}
			l := (i*7919 + j) % lists
			old, err := rt.GetElem(dir, l)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.SetElem(dir, l, newNode(int64(j), rt.GetRefFast(old, fNext))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		res := collect()
		pause += res.PauseTime
		mark += res.MarkTime
		lines += res.DeviceStats.FlushedLines
		fences += res.DeviceStats.Fences
		if res.LiveObjects != live+1 {
			b.Fatalf("collection kept %d objects, want %d", res.LiveObjects, live+1)
		}
	}
	b.ReportMetric(float64(pause.Microseconds())/1e3/float64(b.N), "pause-ms")
	b.ReportMetric(float64(mark.Microseconds())/1e3/float64(b.N), "mark-ms")
	b.ReportMetric(float64(lines)/float64(b.N), "devlines/op")
	b.ReportMetric(float64(fences)/float64(b.N), "devfences/op")
}
