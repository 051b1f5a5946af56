package core

import (
	"strings"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// The fast-path contract is accounted device traffic, not just wall
// clock: these tests pin the exact nvm.Stats deltas of the hot
// operations so a regression that re-introduces per-call device work
// (an extra klass read, a per-byte loop, a per-object fence) fails
// loudly.

func fastpathRT(t *testing.T) (*Runtime, *nvm.Device) {
	t.Helper()
	rt, err := NewRuntime(Config{PJHDataSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("fast", 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt, h.Device()
}

func personK(t *testing.T) *klass.Klass {
	t.Helper()
	return klass.MustInstance("fast/Person", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "name", Type: layout.FTRef, RefKlass: StringKlassName},
	)
}

func TestFastPathFieldDeviceTraffic(t *testing.T) {
	rt, dev := fastpathRT(t)
	k := personK(t)
	p, err := rt.PNew(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	idF, err := rt.ResolveField(k, "id")
	if err != nil {
		t.Fatal(err)
	}
	rt.SetLongFast(p, idF, 41)

	// Resolved get: exactly one 8-byte device read, nothing else.
	dev.ResetStats()
	if got := rt.GetLongFast(p, idF); got != 41 {
		t.Fatalf("GetLongFast = %d", got)
	}
	if s := dev.Stats(); s != (nvm.Stats{Reads: 1, BytesRead: 8}) {
		t.Fatalf("fast get stats = %+v", s)
	}

	// Named get re-reads the klass word: twice the device reads.
	dev.ResetStats()
	if got, err := rt.GetLong(p, "id"); err != nil || got != 41 {
		t.Fatalf("GetLong = %d, %v", got, err)
	}
	if s := dev.Stats(); s != (nvm.Stats{Reads: 2, BytesRead: 16}) {
		t.Fatalf("named get stats = %+v", s)
	}

	// Resolved set: exactly one 8-byte device write.
	dev.ResetStats()
	rt.SetLongFast(p, idF, 42)
	if s := dev.Stats(); s != (nvm.Stats{Writes: 1, BytesWritten: 8}) {
		t.Fatalf("fast set stats = %+v", s)
	}
	if got := rt.GetLongFast(p, idF); got != 42 {
		t.Fatalf("after set, GetLongFast = %d", got)
	}
}

func TestStringRoundTripDeviceTraffic(t *testing.T) {
	rt, dev := fastpathRT(t)
	// Warm the klass segment so the measured allocations are steady-state.
	if _, err := rt.NewString("warmup-string-aligned-64b-padding-xx", true); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{40, 400} {
		s := strings.Repeat("x", n)

		// Write: header init is 3 word stores + 1 zeroing store, the
		// payload is ONE bulk store inside the allocation, and the eager
		// persist is the allocation's: one flush over header and payload,
		// one fence — all constant in op count regardless of length.
		dev.ResetStats()
		ref, err := rt.NewString(s, true)
		if err != nil {
			t.Fatal(err)
		}
		st := dev.Stats()
		if st.Writes != 5 {
			t.Fatalf("len %d: NewString writes = %d (want 5: zero, 3 header words, payload)", n, st.Writes)
		}
		if st.Flushes != 1 || st.Fences != 1 {
			t.Fatalf("len %d: NewString flushes/fences = %d/%d (want 1/1)", n, st.Flushes, st.Fences)
		}
		if want := uint64((layout.ArrayHdrBytes + n + nvm.LineSize - 1) / nvm.LineSize); st.FlushedLines != want {
			t.Fatalf("len %d: NewString flushed %d lines (want %d: the object's, once)", n, st.FlushedLines, want)
		}

		// Read: klass word + length word + ONE bulk payload read.
		dev.ResetStats()
		got, err := rt.GetString(ref)
		if err != nil || got != s {
			t.Fatalf("len %d: GetString mismatch (err %v)", n, err)
		}
		st = dev.Stats()
		want := nvm.Stats{Reads: 3, BytesRead: uint64(16 + n)}
		if st != want {
			t.Fatalf("len %d: GetString stats = %+v, want %+v", n, st, want)
		}
	}
}

func TestFlushTransitiveDeviceTraffic(t *testing.T) {
	rt, dev := fastpathRT(t)
	node := klass.MustInstance("fast/Node", nil,
		klass.Field{Name: "left", Type: layout.FTRef, RefKlass: "fast/Leaf"},
		klass.Field{Name: "right", Type: layout.FTRef, RefKlass: "fast/Leaf"},
	)
	leaf := klass.MustInstance("fast/Leaf", nil,
		klass.Field{Name: "v", Type: layout.FTLong},
	)
	// Allocate contiguously: parent (32B) + two leaves (32B each) = 96
	// bytes from a line-aligned start — spanning exactly two cache lines.
	parent, err := rt.PNew(node, 0)
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := rt.PNew(leaf, 0)
	l2, _ := rt.PNew(leaf, 0)
	if err := rt.SetRef(parent, "left", l1); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRef(parent, "right", l2); err != nil {
		t.Fatal(err)
	}

	dev.ResetStats()
	if err := rt.FlushTransitive(parent); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	// Parent: one header read + one body read; each leaf (no ref
	// fields): one header read. 4 reads for a 3-object graph.
	if s.Reads != 4 {
		t.Fatalf("FlushTransitive reads = %d, want 4", s.Reads)
	}
	// The three extents merge into one run: one Flush call covering two
	// lines, one trailing fence — not one flush+fence per object.
	if s.Flushes != 1 || s.FlushedLines != 2 || s.Fences != 1 {
		t.Fatalf("FlushTransitive flushes/lines/fences = %d/%d/%d, want 1/2/1",
			s.Flushes, s.FlushedLines, s.Fences)
	}
	if s.Writes != 0 {
		t.Fatalf("FlushTransitive performed %d writes", s.Writes)
	}
}

func TestFlushTransitiveCycleAndDedup(t *testing.T) {
	rt, dev := fastpathRT(t)
	node := klass.MustInstance("fast/CNode", nil,
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fast/CNode"},
	)
	a, _ := rt.PNew(node, 0)
	b, _ := rt.PNew(node, 0)
	if err := rt.SetRef(a, "next", b); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRef(b, "next", a); err != nil { // cycle
		t.Fatal(err)
	}
	dev.ResetStats()
	if err := rt.FlushTransitive(a); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	// Both 32-byte objects share one cache line: it must be flushed once.
	if s.FlushedLines != 1 || s.Fences != 1 {
		t.Fatalf("cycle flush lines/fences = %d/%d, want 1/1", s.FlushedLines, s.Fences)
	}
}

func TestFlushBatchSingleFence(t *testing.T) {
	rt, dev := fastpathRT(t)
	leaf := klass.MustInstance("fast/BLeaf", nil,
		klass.Field{Name: "v", Type: layout.FTLong},
	)
	refs := make([]layout.Ref, 8)
	for i := range refs {
		r, err := rt.PNew(leaf, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	dev.ResetStats()
	if err := rt.FlushBatch(refs); err != nil {
		t.Fatal(err)
	}
	s := dev.Stats()
	// 8 contiguous 32-byte objects = 256 bytes = 4 lines, one merged
	// flush, one fence.
	if s.Flushes != 1 || s.FlushedLines != 4 || s.Fences != 1 {
		t.Fatalf("FlushBatch flushes/lines/fences = %d/%d/%d, want 1/4/1",
			s.Flushes, s.FlushedLines, s.Fences)
	}
}

func TestFastRefAccessAndBarrier(t *testing.T) {
	rt, _ := fastpathRT(t)
	k := personK(t)
	p, err := rt.PNew(k, 0)
	if err != nil {
		t.Fatal(err)
	}
	nameF, err := rt.ResolveField(k, "name")
	if err != nil {
		t.Fatal(err)
	}
	idF := rt.MustResolveField(k, "id")

	s, err := rt.NewString("fastname", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRefFast(p, nameF, s); err != nil {
		t.Fatal(err)
	}
	if got := rt.GetRefFast(p, nameF); got != s {
		t.Fatalf("GetRefFast = %#x, want %#x", uint64(got), uint64(s))
	}

	// SetRefFast through a non-ref handle is rejected.
	if err := rt.SetRefFast(p, idF, s); err == nil {
		t.Fatal("SetRefFast through a long handle succeeded")
	}

	// SetLongFast through a ref handle would bypass the write barrier:
	// it must panic. GetRefFast through a long handle likewise.
	mustPanic := func(what string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("SetLongFast through ref handle", func() { rt.SetLongFast(p, nameF, 1) })
	mustPanic("GetRefFast through long handle", func() { rt.GetRefFast(p, idF) })

	// The write barrier still records NVM→DRAM references.
	vol, err := rt.NewString("volatile", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetRefFast(p, nameF, vol); err != nil {
		t.Fatal(err)
	}
	if slots := rt.NVMToVolSlots(); len(slots) != 1 {
		t.Fatalf("remset has %d slots, want 1", len(slots))
	}
	if err := rt.SetRefFast(p, nameF, layout.NullRef); err != nil {
		t.Fatal(err)
	}
	if slots := rt.NVMToVolSlots(); len(slots) != 0 {
		t.Fatalf("remset has %d slots after null store, want 0", len(slots))
	}

	// ResolveField on a missing field errors.
	if _, err := rt.ResolveField(k, "nope"); err == nil {
		t.Fatal("ResolveField of missing field succeeded")
	}

	// Handle introspection reflects the resolved class and layout.
	if idF.Offset() != layout.FieldOff(0) || idF.Type() != layout.FTLong {
		t.Fatalf("idF = offset %d type %s", idF.Offset(), idF.Type())
	}
	canon, _ := rt.Reg.Lookup(k.Name)
	if idF.KlassID() != canon.ID() {
		t.Fatalf("idF.KlassID() = %d, want %d", idF.KlassID(), canon.ID())
	}
}

func TestConcurrentFlushers(t *testing.T) {
	rt, _ := fastpathRT(t)
	node := klass.MustInstance("fast/PNode", nil,
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "fast/PNode"},
	)
	refs := make([]layout.Ref, 32)
	var prev layout.Ref
	for i := range refs {
		r, err := rt.PNew(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.SetRef(r, "next", prev); err != nil {
			t.Fatal(err)
		}
		refs[i] = r
		prev = r
	}
	// FlushTransitive and FlushBatch share the runtime's traversal state;
	// concurrent committers must serialize, not interleave (run with
	// -race to see a regression).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := rt.FlushTransitive(prev); err != nil {
					t.Error(err)
					return
				}
				if err := rt.FlushBatch(refs); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestBulkArrayCopies(t *testing.T) {
	rt, dev := fastpathRT(t)
	arr, err := rt.PNew(rt.Reg.PrimArray(layout.FTLong), 64)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]int64, 64)
	for i := range src {
		src[i] = int64(i * 3)
	}
	dev.ResetStats()
	if err := rt.WriteLongs(arr, 0, src); err != nil {
		t.Fatal(err)
	}
	// Klass read + length read + one bulk write.
	if s := dev.Stats(); s.Writes != 1 || s.Reads != 2 {
		t.Fatalf("WriteLongs stats = %+v", s)
	}
	dst := make([]int64, 64)
	dev.ResetStats()
	if err := rt.CopyLongs(arr, 0, dst); err != nil {
		t.Fatal(err)
	}
	if s := dev.Stats(); s.Reads != 3 {
		t.Fatalf("CopyLongs reads = %d, want 3", s.Reads)
	}
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}

	// Partial ranges and bounds.
	if err := rt.CopyLongs(arr, 60, make([]int64, 4)); err != nil {
		t.Fatal(err)
	}
	if err := rt.CopyLongs(arr, 60, make([]int64, 5)); err == nil {
		t.Fatal("out-of-range CopyLongs succeeded")
	}
	if err := rt.WriteLongs(arr, -1, src[:1]); err == nil {
		t.Fatal("negative-start WriteLongs succeeded")
	}

	// Byte arrays, volatile side included.
	barr, err := rt.New(rt.Reg.PrimArray(layout.FTByte), 32)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef0123456789abcdef")
	if err := rt.WriteBytes(barr, 0, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	if err := rt.CopyBytes(barr, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("CopyBytes = %q", got)
	}
	// Type confusion is rejected.
	if err := rt.CopyLongs(barr, 0, dst[:1]); err == nil {
		t.Fatal("CopyLongs on byte array succeeded")
	}
}

func TestPNewMultiArrayKlassChain(t *testing.T) {
	rt, _ := fastpathRT(t)

	// Three-level object multi-array.
	p := personK(t)
	arr, err := rt.PNewMultiArray(p, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	k, err := rt.KlassOf(arr)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[L[L[Lfast/Person;;;"; k.Name != want {
		t.Fatalf("outer klass = %s, want %s", k.Name, want)
	}
	mid, err := rt.GetElem(arr, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := rt.GetElem(mid, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ArrayLen(inner) != 4 {
		t.Fatalf("inner len = %d", rt.ArrayLen(inner))
	}

	// Two-level primitive multi-array: long[2][5] — the outer klass is an
	// array of long-arrays, not doubly wrapped.
	larr, err := rt.PNewMultiArray(rt.Reg.PrimArray(layout.FTLong), []int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	k, err = rt.KlassOf(larr)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[L[long;"; k.Name != want {
		t.Fatalf("outer prim-multi klass = %s, want %s", k.Name, want)
	}
	row, err := rt.GetElem(larr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := rt.KlassOf(row)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Name != "[long" {
		t.Fatalf("row klass = %s, want [long", rk.Name)
	}
	if rt.ArrayLen(row) != 5 {
		t.Fatalf("row len = %d", rt.ArrayLen(row))
	}
}
