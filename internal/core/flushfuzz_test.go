package core

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
)

// Crash-consistency fuzzing for the coalesced flush paths (ROADMAP
// item): FlushTransitive and FlushBatch deduplicate cache-line flushes
// and issue a single trailing fence per device. The §3.5 contract for
// the fine-grained flushes is that an 8-byte field is persisted
// atomically: after a crash a field reads either its old or its new
// value, never a torn mix, and heap metadata stays parseable. Coalescing
// must not widen that vulnerability window — so these tests drive the
// flush-hook crash injector through every flush boundary of both paths
// and assert exactly that contract on the reloaded image.

const (
	fuzzNodes = 24
	fuzzSeed  = 7
)

// buildFlushFuzzHeap creates a fresh runtime + heap with a chain of
// fuzzNodes nodes (two payload longs + a next ref), all roots named, all
// OLD payloads persisted. The build is deterministic, so every crash
// iteration reconstructs the identical pre-crash state.
func buildFlushFuzzHeap(t *testing.T) (*Runtime, *pheap.Heap, []layout.Ref, FieldRef, FieldRef, FieldRef) {
	t.Helper()
	rt, err := NewRuntime(Config{PJHDataSize: 4 << 20, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("fuzz", 0)
	if err != nil {
		t.Fatal(err)
	}
	node := klass.MustInstance("fuzz/Node", nil,
		klass.Field{Name: "a", Type: layout.FTLong},
		klass.Field{Name: "b", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fuzz/Node"},
	)
	aF := rt.MustResolveField(node, "a")
	bF := rt.MustResolveField(node, "b")
	nextF := rt.MustResolveField(node, "next")

	refs := make([]layout.Ref, fuzzNodes)
	var prev layout.Ref
	for i := range refs {
		ref, err := rt.PNew(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetLongFast(ref, aF, oldA(i))
		rt.SetLongFast(ref, bF, oldB(i))
		if err := rt.SetRefFast(ref, nextF, prev); err != nil {
			t.Fatal(err)
		}
		if err := rt.SetRoot(fmt.Sprintf("n%d", i), ref); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		prev = ref
	}
	// Baseline: everything persisted (allocation metadata, roots, OLD
	// payloads).
	h.Device().FlushAll()
	return rt, h, refs, aF, bF, nextF
}

func oldA(i int) int64 { return int64(1000 + i) }
func oldB(i int) int64 { return int64(2000 + i) }
func newA(i int) int64 { return int64(501000 + i) }
func newB(i int) int64 { return int64(502000 + i) }

// checkCrashImage reloads a crash image and asserts the §3.5 contract:
// the heap parses, every root resolves, and each payload field is
// exactly old or exactly new — field-granular atomicity, the same
// guarantee the unbatched flush+fence sequence gives.
func checkCrashImage(t *testing.T, img []byte, when string) {
	t.Helper()
	h, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("%s: reload: %v", when, err)
	}
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("%s: heap does not parse: %v", when, err)
	}
	for i := 0; i < fuzzNodes; i++ {
		ref, ok := h.GetRoot(fmt.Sprintf("n%d", i))
		if !ok {
			t.Fatalf("%s: root n%d lost", when, i)
		}
		a := int64(h.GetWord(ref, layout.FieldOff(0)))
		b := int64(h.GetWord(ref, layout.FieldOff(1)))
		if a != oldA(i) && a != newA(i) {
			t.Fatalf("%s: node %d field a torn: %d (want %d or %d)", when, i, a, oldA(i), newA(i))
		}
		if b != oldB(i) && b != newB(i) {
			t.Fatalf("%s: node %d field b torn: %d (want %d or %d)", when, i, b, oldB(i), newB(i))
		}
	}
}

// checkAllNew asserts every payload persisted its NEW value — the
// postcondition once the coalesced flush call returned.
func checkAllNew(t *testing.T, img []byte, when string) {
	t.Helper()
	h, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("%s: reload: %v", when, err)
	}
	for i := 0; i < fuzzNodes; i++ {
		ref, _ := h.GetRoot(fmt.Sprintf("n%d", i))
		if a := int64(h.GetWord(ref, layout.FieldOff(0))); a != newA(i) {
			t.Fatalf("%s: node %d field a = %d after completed flush, want %d", when, i, a, newA(i))
		}
		if b := int64(h.GetWord(ref, layout.FieldOff(1))); b != newB(i) {
			t.Fatalf("%s: node %d field b = %d after completed flush, want %d", when, i, b, newB(i))
		}
	}
}

// runFlushCrashFuzz exercises one coalesced flush path at every flush
// boundary. doFlush mutates all payloads to NEW and invokes the flush
// path under test.
func runFlushCrashFuzz(t *testing.T, label string, doFlush func(rt *Runtime, refs []layout.Ref) error) {
	// Dry run to count the path's flushes.
	rt, h, refs, aF, bF, _ := buildFlushFuzzHeap(t)
	base := h.Device().Stats().Flushes
	for i, ref := range refs {
		rt.SetLongFast(ref, aF, newA(i))
		rt.SetLongFast(ref, bF, newB(i))
	}
	if err := doFlush(rt, refs); err != nil {
		t.Fatal(err)
	}
	total := h.Device().Stats().Flushes - base
	if total == 0 {
		t.Fatalf("%s: no flushes to fuzz", label)
	}

	for k := uint64(1); k <= total+1; k++ {
		rt, h, refs, aF, bF, _ := buildFlushFuzzHeap(t)
		dev := h.Device()
		for i, ref := range refs {
			rt.SetLongFast(ref, aF, newA(i))
			rt.SetLongFast(ref, bF, newB(i))
		}
		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error { return doFlush(rt, refs) })
		if err != nil {
			t.Fatalf("%s k=%d: %v", label, k, err)
		}
		when := fmt.Sprintf("%s k=%d", label, k)
		// Adversarial eviction: a random subset of unflushed dirty lines
		// persisted anyway. The contract must hold under every subset.
		checkCrashImage(t, dev.CrashImage(nvm.CrashRandomEviction, int64(k)), when)
		checkCrashImage(t, dev.CrashImage(nvm.CrashFlushedOnly, 0), when+" (flushed-only)")
		if !crashed {
			// Past the last flush: the call completed, everything is NEW.
			checkAllNew(t, dev.CrashImage(nvm.CrashFlushedOnly, 0), when+" (completed)")
			break
		}
	}
}

func TestFlushTransitiveCrashAtEveryBoundary(t *testing.T) {
	runFlushCrashFuzz(t, "FlushTransitive", func(rt *Runtime, refs []layout.Ref) error {
		// The chain head reaches every node transitively.
		return rt.FlushTransitive(refs[len(refs)-1])
	})
}

func TestFlushBatchCrashAtEveryBoundary(t *testing.T) {
	runFlushCrashFuzz(t, "FlushBatch", func(rt *Runtime, refs []layout.Ref) error {
		return rt.FlushBatch(refs)
	})
}

// TestCoalescedFenceDiscipline pins the single-trailing-fence claim the
// fuzz relies on: a transitive flush over N objects issues exactly one
// fence, and its line flushes never write back the same line twice.
func TestCoalescedFenceDiscipline(t *testing.T) {
	rt, h, refs, aF, _, _ := buildFlushFuzzHeap(t)
	for i, ref := range refs {
		rt.SetLongFast(ref, aF, newA(i))
	}
	s0 := h.Device().Stats()
	if err := rt.FlushTransitive(refs[len(refs)-1]); err != nil {
		t.Fatal(err)
	}
	d := h.Device().Stats().Sub(s0)
	if d.Fences != 1 {
		t.Fatalf("transitive flush issued %d fences, want 1", d.Fences)
	}
	maxLines := uint64(fuzzNodes*48/nvm.LineSize + fuzzNodes + 2)
	if d.FlushedLines > maxLines {
		t.Fatalf("flushed %d lines for %d nodes — lines written back more than once?", d.FlushedLines, fuzzNodes)
	}
}
