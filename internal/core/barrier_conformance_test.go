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
// that can overwrite a persistent reference slot, with the concurrent
// mark disarmed and armed, for every kind of value the entry point may
// legally store. Whatever the entry point, the same four things must
// hold (see pheap/barrier.go for why):
//
//   - the device traffic is what the entry point has always issued (the
//     counts in the table are those of the commit before the barrier
//     moved into pheap; for the plain accessors that is one write, plus
//     one read iff armed);
//   - armed, the overwritten referent reaches the drain of the heap that
//     holds the slot exactly once if it lies below the mark's snapshot,
//     and not at all if it was allocated after it; disarmed, nothing is
//     recorded;
//   - the object's card is dirty iff armed;
//   - after publication the remembered set is exactly the slots that
//     hold a volatile reference.

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
	// old is what an armed drain must deliver for the store, each referent
	// once: the below-snapshot referents it overwrites.
	old []layout.Ref
	// store runs the entry point, leaving val in the slot.
	store func(val layout.Ref)
}

type barrierRow struct {
	name  string
	kinds []valKind
	// site builds the slot, before the mark is armed; val is what the
	// measured store will write.
	site func(w *barrierWorld, val layout.Ref) barrierSite
	// dev is the device traffic of one store, disarmed and armed.
	dev [2]devOps
	// publishes: the entry point is a publication point itself, so a
	// volatile val costs it the one load publication re-derives from.
	publishes bool
	// black: the site can store again, so the allocate-black half of the
	// pre-write rule is checked through it too.
	black bool
}

var anyRef = []valKind{toNVM, toVolatile, toNull}

// holderSite is a B holder whose f points at a second one.
func holderSite(w *barrierWorld, store func(obj, val layout.Ref) error) barrierSite {
	obj, old := w.pnew(), w.pnew()
	w.check(w.rt.SetRefFast(obj, w.fF, old))
	return barrierSite{obj: obj, boff: w.fF.Offset(), old: []layout.Ref{old},
		store: func(val layout.Ref) { w.check(store(obj, val)) }}
}

// elemSite is a B reference array whose element 1 points at a holder.
func elemSite(w *barrierWorld, store func(arr layout.Ref, i int, val layout.Ref) error) barrierSite {
	arr, err := w.rt.PNew(w.rt.Reg.ObjArray(w.holder.Name), 4)
	w.check(err)
	old := w.pnew()
	w.check(w.rt.SetElem(arr, 1, old))
	return barrierSite{obj: arr, boff: layout.ElemOff(layout.FTRef, 1), old: []layout.Ref{old},
		store: func(val layout.Ref) { w.check(store(arr, 1, val)) }}
}

// mutatorRows are the three Mutator accessors for a mutator attached to
// heap.
func mutatorRows(heap string) []barrierRow {
	return []barrierRow{
		{name: "Mutator(" + heap + ").SetRef", kinds: anyRef, black: true, dev: plainNamed,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				m := w.mutator(heap)
				return holderSite(w, func(obj, val layout.Ref) error { return m.SetRef(obj, "f", val) })
			}},
		{name: "Mutator(" + heap + ").SetRefFast", kinds: anyRef, black: true, dev: plain,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				m := w.mutator(heap)
				return holderSite(w, func(obj, val layout.Ref) error { return m.SetRefFast(obj, w.fF, val) })
			}},
		{name: "Mutator(" + heap + ").SetElem", kinds: anyRef, black: true, dev: plainElem,
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
	plain      = [2]devOps{{0, 1, 0, 0}, {1, 1, 0, 0}}
	plainNamed = [2]devOps{{1, 1, 0, 0}, {2, 1, 0, 0}} // + the klass word
	plainElem  = [2]devOps{{2, 1, 0, 0}, {3, 1, 0, 0}} // + klass word and length
)

func barrierRows() []barrierRow {
	rows := mutatorRows("B")
	// A mutator attached to another heap: same stores, same counts, and
	// everything must land in B all the same.
	rows = append(rows, mutatorRows("A")...)
	rows = append(rows,
		barrierRow{name: "Runtime.SetRef", kinds: anyRef, black: true, dev: plainNamed,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				return holderSite(w, func(obj, val layout.Ref) error { return w.rt.SetRef(obj, "f", val) })
			}},
		barrierRow{name: "Runtime.SetRefFast", kinds: anyRef, black: true, dev: plain,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				return holderSite(w, func(obj, val layout.Ref) error { return w.rt.SetRefFast(obj, w.fF, val) })
			}},
		barrierRow{name: "Runtime.SetElem", kinds: anyRef, black: true, dev: plainElem,
			site: func(w *barrierWorld, _ layout.Ref) barrierSite { return elemSite(w, w.rt.SetElem) }},
		// The whole field area as one image, over the image read ahead of the
		// store: the reference slot through the barrier, the long behind it
		// as a bulk write, one flush + fence.
		barrierRow{name: "WriteFieldImage", kinds: anyRef, black: true,
			dev: [2]devOps{{0, 2, 1, 1}, {1, 2, 1, 1}},
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
		// the store — and, armed, the barrier's own load of the slot.
		barrierRow{name: "ptx.WriteRefWord", kinds: anyRef, black: true,
			dev: [2]devOps{{1, 2, 1, 1}, {2, 2, 1, 1}},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				m, err := ptx.NewManager(w.h)
				w.check(err)
				tx := m.Begin()
				w.t.Cleanup(tx.Commit)
				s := holderSite(w, nil)
				s.store = func(val layout.Ref) { w.check(tx.WriteRefWord(s.obj, s.boff, val)) }
				return s
			}},
		// Abort restoring one reference slot: what it rolls back over is
		// the overwritten referent, what it restores the value. The
		// before-image read back and stored (its line, fence), then the seq
		// word (its line, fence).
		barrierRow{name: "ptx.Abort", kinds: anyRef, publishes: true,
			dev: [2]devOps{{1, 2, 2, 2}, {2, 2, 2, 2}},
			site: func(w *barrierWorld, val layout.Ref) barrierSite {
				m, err := ptx.NewManager(w.h)
				w.check(err)
				obj, old := w.pnew(), w.pnew()
				w.check(w.rt.SetRefFast(obj, w.fF, val))
				tx := m.Begin()
				w.check(tx.WriteRefWord(obj, w.fF.Offset(), old))
				return barrierSite{obj: obj, boff: w.fF.Offset(), old: []layout.Ref{old},
					store: func(layout.Ref) { tx.Abort() }}
			}},
		// pindex installs by CAS and runs the pre-write half only; its
		// values are never volatile (Put rejects them).
		barrierRow{name: "pindex.Put over resident", kinds: []valKind{toNVM, toNull}, black: true,
			dev: [2]devOps{{6, 2, 1, 1}, {6, 2, 1, 1}},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				c, old := indexSite(w), w.pnew()
				w.check(c.Put(7, old))
				return barrierSite{obj: indexNode(w, 7), boff: layout.FieldOff(2), old: []layout.Ref{old},
					store: func(val layout.Ref) { w.check(c.Put(7, val)) }}
			}},
		// Delete of the list's last node: the mark over its null next
		// records nothing, the unlink from its predecessor records the node.
		barrierRow{name: "pindex.Delete unlink", kinds: []valKind{toNull},
			dev: [2]devOps{{12, 4, 2, 2}, {12, 4, 2, 2}},
			site: func(w *barrierWorld, _ layout.Ref) barrierSite {
				c := indexSite(w)
				for k := int64(1); k <= 3; k++ {
					w.check(c.Put(k, layout.NullRef))
				}
				var last int64
				c.Scan(func(k int64, _ layout.Ref) bool { last = k; return true })
				node := indexNode(w, last)
				return barrierSite{obj: node, boff: layout.FieldOff(3), old: []layout.Ref{node},
					store: func(layout.Ref) {
						if !c.Delete(last) {
							w.t.Fatalf("delete of %d missed", last)
						}
					}}
			}},
		// The first put into bucket 1 of a fresh index installs the bucket's
		// sentinel in the bucket array over null: nothing to record, the
		// array's card is dirtied. (Sentinel and node are the ctx's first
		// allocations: one persist each, and the opened mark of the region
		// they dispense.) The put's re-resolve of the index header after
		// the epoch bump is one read: the site's own GetRoot below taught
		// the name table's slot index the root.
		barrierRow{name: "pindex bucket-array install", kinds: []valKind{toNVM, toNull},
			dev: [2]devOps{{11, 21, 7, 5}, {11, 21, 7, 5}},
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

// drainAll empties every barrier buffer of h and returns the pre-write
// records, sorted.
func drainAll(h *pheap.Heap) []layout.Ref {
	var got []layout.Ref
	h.DrainBarrierShard(0, 1, func(r layout.Ref) { got = append(got, r) })
	slices.Sort(got)
	return got
}

func TestRefStoreBarrierConformance(t *testing.T) {
	for _, row := range barrierRows() {
		for armed := 0; armed < 2; armed++ {
			for _, kind := range row.kinds {
				row, armed, kind := row, armed == 1, kind
				t.Run(fmt.Sprintf("%s/armed=%v/%v", row.name, armed, kind), func(t *testing.T) {
					w := newBarrierWorld(t)
					val := w.value(kind)
					site := row.site(w, val)
					want := row.dev[0]
					if armed {
						w.h.BeginConcurrentMark(w.h.SnapshotRegionTops())
						defer w.h.EndConcurrentMark()
						want = row.dev[1]
					}
					if row.publishes && kind == toVolatile {
						want.reads++
					}

					before := w.h.Device().Stats()
					site.store(val)
					if got := opsOf(w.h.Device().Stats().Sub(before)); got != want {
						t.Errorf("device traffic %+v, want %+v", got, want)
					}

					slices.Sort(site.old)
					wantDrain := site.old
					if !armed {
						wantDrain = nil
					}
					if got := drainAll(w.h); !slices.Equal(got, wantDrain) {
						t.Errorf("drain delivered %#x, want %#x", got, wantDrain)
					}
					if got := drainAll(w.rt.heapByName["A"]); len(got) != 0 {
						t.Errorf("heap A's drain delivered %#x for a store into B", got)
					}

					cards := w.h.SATBDirtyCards()
					card := (w.h.OffOf(site.obj) - w.h.Geo().DataOff) / pheap.SATBCardBytes
					if dirty := card < len(cards) && cards[card]; dirty != armed {
						t.Errorf("card dirty = %v with the mark armed = %v", dirty, armed)
					}

					var oracle []layout.Ref
					if kind == toVolatile {
						oracle = []layout.Ref{site.obj + layout.Ref(site.boff)}
					}
					if got := w.rt.NVMToVolSlots(); !slices.Equal(got, oracle) {
						t.Errorf("remembered set %#x, want %#x", got, oracle)
					}

					if armed && row.black {
						// Allocate-black: a referent born after the snapshot
						// is live by construction and is not recorded.
						site.store(w.pnew())
						drainAll(w.h)
						site.store(val)
						if got := drainAll(w.h); len(got) != 0 {
							t.Errorf("drain delivered %#x for an overwritten allocate-black referent", got)
						}
					}
				})
			}
		}
	}
}
