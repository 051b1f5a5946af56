package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
	"espresso/internal/ptx"
	"espresso/internal/vheap"
)

// The reference-store barrier's conformance table: every entry point
// that can overwrite a persistent reference slot, for every kind of
// value the entry point may legally store. Whatever the entry point, the
// same two things must hold (see pheap/barrier.go for why):
//
//   - the device traffic is what the entry point has always issued (the
//     counts in the table are those of the commit before the barrier
//     moved into pheap; for the plain accessors that is one write);
//   - the remembered set, as NVMToVolSlots reads it, is exactly the slots
//     that hold a volatile reference.

type valKind int

const (
	toNVM valKind = iota
	toVolatile
	toNull
)

func (k valKind) String() string { return [...]string{"nvm", "volatile", "null"}[k] }

// devOps is a device-traffic delta in the four counts the device-op
// contract is stated in.
type devOps struct{ reads, writes, lines, fences uint64 }

func opsOf(s nvm.Stats) devOps { return devOps{s.Reads, s.Writes, s.FlushedLines, s.Fences} }

// barrierWorld is a fresh runtime for one case: the heap the slot lives
// in ("B", active) beside another ("A") that mutators of the other-heap
// rows are attached to.
type barrierWorld struct {
	t      *testing.T
	rt     *Runtime
	h      *pheap.Heap // B, the heap holding every slot under test
	holder *klass.Klass
	fF     FieldRef
}

func newBarrierWorld(t *testing.T) *barrierWorld {
	t.Helper()
	rt, err := NewRuntime(Config{PJHDataSize: 1 << 20,
		Volatile: vheap.Config{EdenSize: 256 << 10, SurvivorSize: 64 << 10, OldSize: 256 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.CreateHeap("A", 0); err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("B", 0)
	if err != nil {
		t.Fatal(err)
	}
	holder := klass.MustInstance("conf/Holder", nil,
		klass.Field{Name: "f", Type: layout.FTRef},
		klass.Field{Name: "n", Type: layout.FTLong},
	)
	return &barrierWorld{t: t, rt: rt, h: h, holder: holder, fF: rt.MustResolveField(holder, "f")}
}

// pnew allocates a holder in B.
func (w *barrierWorld) pnew() layout.Ref {
	w.t.Helper()
	ref, err := w.rt.PNew(w.holder, 0)
	if err != nil {
		w.t.Fatal(err)
	}
	return ref
}

// value makes a value of the given kind; call before arming. The
// persistent candidate is allocated whatever the kind, so B's layout —
// and with it every line count — is the same for all three.
func (w *barrierWorld) value(k valKind) layout.Ref {
	w.t.Helper()
	nvm := w.pnew()
	switch k {
	case toNVM:
		return nvm
	case toVolatile:
		ref, err := w.rt.New(w.holder, 0)
		if err != nil {
			w.t.Fatal(err)
		}
		return ref
	}
	return layout.NullRef
}

// mutator attaches a mutator to the named heap and leaves B active.
func (w *barrierWorld) mutator(heap string) *Mutator {
	w.t.Helper()
	if err := w.rt.SetActiveHeap(heap); err != nil {
		w.t.Fatal(err)
	}
	m, err := w.rt.NewMutator()
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(m.Release)
	if err := w.rt.SetActiveHeap("B"); err != nil {
		w.t.Fatal(err)
	}
	return m
}

func (w *barrierWorld) check(err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
}

// barrierSite is one entry point aimed at one slot: (obj, boff) holds a
// reference the store is about to overwrite.
type barrierSite struct {
	obj  layout.Ref
	boff int
	// store runs the entry point, leaving val in the slot.
	store func(val layout.Ref)
}

type barrierRow struct {
	name  string
	kinds []valKind
	// site builds the slot; val is what the measured store will write.
	site func(w *barrierWorld, val layout.Ref) barrierSite
	// dev is the device traffic of one store.
	dev devOps
}

var anyRef = []valKind{toNVM, toVolatile, toNull}

// holderSite is a B holder whose f points at a second one.
func holderSite(w *barrierWorld, store func(obj, val layout.Ref) error) barrierSite {
	obj, old := w.pnew(), w.pnew()
	w.check(w.rt.SetRefFast(obj, w.fF, old))
	return barrierSite{obj: obj, boff: w.fF.Offset(),
		store: func(val layout.Ref) { w.check(store(obj, val)) }}
}

// elemSite is a B reference array whose element 1 points at a holder.
func elemSite(w *barrierWorld, store func(arr layout.Ref, i int, val layout.Ref) error) barrierSite {
	arr, err := w.rt.PNew(w.rt.Reg.ObjArray(w.holder.Name), 4)
	w.check(err)
	old := w.pnew()
	w.check(w.rt.SetElem(arr, 1, old))
	return barrierSite{obj: arr, boff: layout.ElemOff(layout.FTRef, 1),
		store: func(val layout.Ref) { w.check(store(arr, 1, val)) }}
}

// mutatorRows are the three Mutator accessors for a mutator attached to
// heap.
func mutatorRows(heap string) []barrierRow {
	return []barrierRow{
		{name: "Mutator(" + heap + ").SetRef", kinds: anyRef, dev: plainNamed,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				m := w.mutator(heap)
				return holderSite(w, func(obj, val layout.Ref) error { return m.SetRef(obj, "f", val) })
			}},
		{name: "Mutator(" + heap + ").SetRefFast", kinds: anyRef, dev: plain,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				m := w.mutator(heap)
				return holderSite(w, func(obj, val layout.Ref) error { return m.SetRefFast(obj, w.fF, val) })
			}},
		{name: "Mutator(" + heap + ").SetElem", kinds: anyRef, dev: plainElem,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				return elemSite(w, w.mutator(heap).SetElem)
			}},
	}
}

// indexSite opens a pindex on B with two buckets and a ctx on it.
func indexSite(w *barrierWorld) *pindex.Ctx {
	ix, err := pindex.Open(w.h, w.rt.SafepointPinner(), "conf-index", pindex.Options{InitialBuckets: 2})
	w.check(err)
	c := ix.NewCtx()
	w.t.Cleanup(c.Release)
	return c
}

// indexLastKey puts keys 1–3 through c and returns the one last in the
// list.
func indexLastKey(w *barrierWorld, c *pindex.Ctx) int64 {
	for k := int64(1); k <= 3; k++ {
		w.check(c.Put(k, layout.NullRef))
	}
	var last int64
	c.Scan(func(k int64, _ layout.Ref) bool { last = k; return true })
	return last
}

// indexNode finds the data node of key in B.
func indexNode(w *barrierWorld, key int64) layout.Ref {
	w.t.Helper()
	var node layout.Ref
	w.check(w.h.ForEachObject(func(off int, k *klass.Klass, _ int) bool {
		ref := w.h.AddrOf(off)
		if k.Name == pindex.NodeKlassName && w.h.GetWord(ref, layout.FieldOff(0))&1 == 1 &&
			int64(w.h.GetWord(ref, layout.FieldOff(1))) == key {
			node = ref
		}
		return true
	}))
	if node == layout.NullRef {
		w.t.Fatalf("no index node for key %d", key)
	}
	return node
}

var (
	plain      = devOps{0, 1, 0, 0}
	plainNamed = devOps{1, 1, 0, 0} // + the klass word
	plainElem  = devOps{2, 1, 0, 0} // + klass word and length
)

func barrierRows() []barrierRow {
	rows := mutatorRows("B")
	// A mutator attached to another heap: same stores, same counts, and
	// everything must land in B all the same.
	rows = append(rows, mutatorRows("A")...)
	rows = append(rows,
		barrierRow{name: "Runtime.SetRef", kinds: anyRef, dev: plainNamed,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				return holderSite(w, func(obj, val layout.Ref) error { return w.rt.SetRef(obj, "f", val) })
			}},
		barrierRow{name: "Runtime.SetRefFast", kinds: anyRef, dev: plain,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				return holderSite(w, func(obj, val layout.Ref) error { return w.rt.SetRefFast(obj, w.fF, val) })
			}},
		barrierRow{name: "Runtime.SetElem", kinds: anyRef, dev: plainElem,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite { return elemSite(w, w.rt.SetElem) }},
		// The whole field area as one image, over the image read ahead of the
		// store: the reference slot through the barrier, the long behind it
		// as a bulk write, one flush + fence.
		barrierRow{name: "WriteFieldImage", kinds: anyRef,
			dev: devOps{0, 2, 1, 1},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				s := holderSite(w, nil)
				old := make([]byte, 2*layout.WordSize)
				w.check(w.rt.ReadFieldImage(s.obj, old))
				s.store = func(val layout.Ref) {
					img := make([]byte, 2*layout.WordSize)
					binary.LittleEndian.PutUint64(img, uint64(val))
					binary.LittleEndian.PutUint64(img[layout.WordSize:], 7)
					w.check(w.rt.WriteFieldImage(s.obj, old, img, []int{w.fF.Offset()}))
				}
				return s
			}},
		// One logged store inside an open transaction: the word's
		// before-image read and appended to the log (one flush + fence), then
		// the store.
		barrierRow{name: "ptx.WriteRefWord", kinds: anyRef,
			dev: devOps{1, 2, 1, 1},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				m, err := ptx.NewManager(w.h)
				w.check(err)
				tx := m.Begin()
				w.t.Cleanup(tx.Commit)
				s := holderSite(w, nil)
				s.store = func(val layout.Ref) { w.check(tx.WriteRefWord(s.obj, s.boff, val)) }
				return s
			}},
		// Abort restoring one reference slot to the value. The before-image
		// read back and stored (its line, fence), then the seq word (its
		// line, fence).
		barrierRow{name: "ptx.Abort", kinds: anyRef,
			dev: devOps{1, 2, 2, 2},
			site: func(w *barrierWorld, val layout.Ref) barrierSite {
				m, err := ptx.NewManager(w.h)
				w.check(err)
				obj, old := w.pnew(), w.pnew()
				w.check(w.rt.SetRefFast(obj, w.fF, val))
				tx := m.Begin()
				w.check(tx.WriteRefWord(obj, w.fF.Offset(), old))
				return barrierSite{obj: obj, boff: w.fF.Offset(),
					store: func(layout.Ref) { tx.Abort() }}
			}},
		// pindex installs by CAS; its values are never volatile (Put
		// rejects them), so it remembers no slot.
		barrierRow{name: "pindex.Put over resident", kinds: []valKind{toNVM, toNull},
			dev: devOps{6, 2, 1, 1},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				c, old := indexSite(w), w.pnew()
				w.check(c.Put(7, old))
				return barrierSite{obj: indexNode(w, 7), boff: layout.FieldOff(2),
					store: func(val layout.Ref) { w.check(c.Put(7, val)) }}
			}},
		// Delete of the list's last node after a walk: the mark over its
		// null next (one line, one fence), then the unlink from its
		// predecessor, a lazy CAS that flushes nothing. The index is opened
		// again for the delete, so it has no hint table to take instead; a
		// get of an absent key, which hints nothing, caches its header.
		barrierRow{name: "pindex.Delete unlink", kinds: []valKind{toNull},
			dev: devOps{11, 3, 1, 1},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				last := indexLastKey(w, indexSite(w))
				c := indexSite(w)
				c.Get(0)
				return barrierSite{obj: indexNode(w, last), boff: layout.FieldOff(3),
					store: func(layout.Ref) {
						if !c.Delete(last) {
							w.t.Fatalf("delete of %d missed", last)
						}
					}}
			}},
		// The same delete through the hint table the puts filled: the key
		// and next words of the hinted node, then the mark (one line, one
		// fence), and no unlink.
		barrierRow{name: "pindex.Delete hinted", kinds: []valKind{toNull},
			dev: devOps{4, 2, 1, 1},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				c := indexSite(w)
				last := indexLastKey(w, c)
				return barrierSite{obj: indexNode(w, last), boff: layout.FieldOff(3),
					store: func(layout.Ref) {
						if !c.Delete(last) {
							w.t.Fatalf("delete of %d missed", last)
						}
					}}
			}},
		// The first put into bucket 1 of a fresh index installs the bucket's
		// sentinel in the bucket array over null. (Sentinel and node are the ctx's first
		// allocations: one persist each, and the opened mark of the region
		// they dispense.) The put's re-resolve of the index header after
		// the epoch bump is one read: the site's own GetRoot below taught
		// the name table's slot index the root.
		barrierRow{name: "pindex bucket-array install", kinds: []valKind{toNVM, toNull},
			dev: devOps{11, 21, 7, 5},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				c := indexSite(w)
				key := int64(1)
				for layout.MixHash64(key)&1 == 0 {
					key++
				}
				hdr, ok := w.h.GetRoot("conf-index")
				if !ok {
					w.t.Fatal("index root missing")
				}
				arr := layout.UntagRef(layout.Ref(w.h.GetWord(hdr, layout.FieldOff(0))))
				return barrierSite{obj: arr, boff: layout.ElemOff(layout.FTRef, 1),
					store: func(val layout.Ref) { w.check(c.Put(key, val)) }}
			}},
	)
	return rows
}

// TestRefStoreBarrierConformance runs every row for every kind. Case
// names keep the armed=false level: no mark ever runs beside a store (the
// collector stops the world), so every case is the disarmed barrier, and
// the level keeps each case's name what it was when the table also had
// an armed half.
func TestRefStoreBarrierConformance(t *testing.T) {
	for _, row := range barrierRows() {
		for _, kind := range row.kinds {
			t.Run(fmt.Sprintf("%s/armed=false/%v", row.name, kind), func(t *testing.T) {
				w := newBarrierWorld(t)
				val := w.value(kind)
				site := row.site(w, val)

				before := w.h.Device().Stats()
				site.store(val)
				if got := opsOf(w.h.Device().Stats().Sub(before)); got != row.dev {
					t.Errorf("device traffic %+v, want %+v", got, row.dev)
				}

				var oracle []layout.Ref
				if kind == toVolatile {
					oracle = []layout.Ref{site.obj + layout.Ref(site.boff)}
				}
				if got := w.rt.NVMToVolSlots(); !slices.Equal(got, oracle) {
					t.Errorf("remembered set %#x, want %#x", got, oracle)
				}
			})
		}
	}
}
