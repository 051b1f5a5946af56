// Crashrecovery kills the crash-consistent garbage collector mid-compact
// and shows §4.3's recovery completing the collection at the next load:
// the object graph is bit-for-bit intact afterwards.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
)

func main() {
	reg := klass.NewRegistry()
	heap, err := pheap.Create(reg, pheap.Config{DataSize: 4 << 20, Mode: nvm.Tracked})
	if err != nil {
		log.Fatal(err)
	}
	node, err := reg.Define(klass.MustInstance("Node", nil,
		klass.Field{Name: "value", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "Node"},
	))
	if err != nil {
		log.Fatal(err)
	}

	// A linked list of 1000 live nodes, interleaved with garbage.
	var head layout.Ref
	for i := 0; i < 1000; i++ {
		if _, err := heap.Alloc(node, 0); err != nil { // garbage
			log.Fatal(err)
		}
		ref, err := heap.Alloc(node, 0)
		if err != nil {
			log.Fatal(err)
		}
		heap.SetWord(ref, layout.FieldOff(0), uint64(i))
		heap.SetWord(ref, layout.FieldOff(1), uint64(head))
		head = ref
	}
	heap.SetRoot("list", head)
	heap.Device().FlushAll()
	fmt.Println("built 1000-node list (plus 1000 garbage nodes)")

	// Start a collection and kill it two flushes after the heap was
	// stamped active — mid-compaction, after the mark bitmap persisted.
	var stamped uint64
	heap.Device().SetFlushHook(func(n uint64) {
		if stamped == 0 && heap.GCActive() {
			stamped = n
		}
		if stamped != 0 && n == stamped+2 {
			panic("simulated power loss during GC")
		}
	})
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Printf("GC crashed: %v\n", r)
			}
		}()
		if _, err := pgc.Collect(heap, pgc.NoRoots{}); err != nil {
			log.Fatal(err)
		}
	}()
	heap.Device().SetFlushHook(nil)

	// Reboot from what actually reached NVM (random eviction of dirty lines).
	img := heap.Device().CrashImage(nvm.CrashRandomEviction, 7)
	reloaded, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded image: gcActive=%v (collection was interrupted)\n", reloaded.GCActive())

	res, _, err := pgc.RecoverIfNeeded(reloaded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery finished the collection: %d live objects, %d moved\n",
		res.LiveObjects, res.MovedObjects)

	// Verify the list.
	head2, ok := reloaded.GetRoot("list")
	if !ok {
		log.Fatal("list root lost")
	}
	count, want := 0, uint64(999)
	for ref := head2; ref != layout.NullRef; {
		if v := reloaded.GetWord(ref, layout.FieldOff(0)); v != want {
			log.Fatalf("node %d holds %d, want %d", count, v, want)
		}
		want--
		count++
		ref = layout.Ref(reloaded.GetWord(ref, layout.FieldOff(1)))
	}
	fmt.Printf("list verified: %d nodes in order — graph intact after crash + recovery\n", count)
}
