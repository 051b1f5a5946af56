package ptx_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
	"espresso/internal/ptx"
)

// sweepWorld is one fresh heap with a manager on it and the transaction
// under test: run stores want into slots, and end commits or aborts.
type sweepWorld struct {
	h     *pheap.Heap
	m     *ptx.Manager
	slots []slot
	want  []uint64 // what the slots hold once the transaction is finished
	run   func(tx *ptx.Tx) error
}

type slot struct {
	obj  layout.Ref
	boff int
}

func (w *sweepWorld) read(h *pheap.Heap) []uint64 {
	vals := make([]uint64, len(w.slots))
	for i, s := range w.slots {
		vals[i] = h.GetWord(s.obj, s.boff)
	}
	return vals
}

// wordsWorld is a long array of n words holding 1..n, rooted, and a
// transaction that stores 1001..1000+n into them: declared as one range
// first, or logged word by word; committed, or aborted.
func wordsWorld(t *testing.T, n int, declare, abort bool) *sweepWorld {
	t.Helper()
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 512 << 10, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ptx.NewManager(h)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := h.Alloc(h.Registry().PrimArray(layout.FTLong), n)
	if err != nil {
		t.Fatal(err)
	}
	w := &sweepWorld{h: h, m: m}
	if err := m.Run(func(tx *ptx.Tx) error {
		if err := tx.Declare(arr, layout.ElemOff(layout.FTLong, 0), n*layout.WordSize); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			w.slots = append(w.slots, slot{arr, layout.ElemOff(layout.FTLong, i)})
			if err := tx.WriteWord(arr, w.slots[i].boff, uint64(i+1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.SetRoot("words", arr); err != nil {
		t.Fatal(err)
	}
	w.want = w.read(h)
	if !abort {
		for i := range w.want {
			w.want[i] += 1000
		}
	}
	w.run = func(tx *ptx.Tx) error {
		if declare {
			if err := tx.Declare(arr, w.slots[0].boff, n*layout.WordSize); err != nil {
				return err
			}
		}
		for i, s := range w.slots {
			if err := tx.WriteWord(s.obj, s.boff, uint64(1001+i)); err != nil {
				return err
			}
		}
		if abort {
			tx.Abort()
		} else {
			tx.Commit()
		}
		return nil
	}
	return w
}

// refsWorld is TestCrashAtEveryPublishCommitBoundary's holder on a
// runtime-attached heap — an NVM→volatile store, an NVM→NVM store and a
// primitive — so every reference store and every restored reference
// slot runs the barrier with a remembered set behind it.
func refsWorld(t *testing.T) *sweepWorld {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{PJHDataSize: 1 << 20, NVMMode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.CreateHeap("sweep", 0)
	if err != nil {
		t.Fatal(err)
	}
	holder := klass.MustInstance("sweep/Holder", nil,
		klass.Field{Name: "a", Type: layout.FTRef},
		klass.Field{Name: "b", Type: layout.FTRef},
		klass.Field{Name: "c", Type: layout.FTLong},
	)
	obj, err := rt.PNew(holder, 0)
	if err != nil {
		t.Fatal(err)
	}
	h.FlushRange(obj, 0, holder.SizeOf(0))
	if err := h.SetRoot("holder", obj); err != nil {
		t.Fatal(err)
	}
	vol, err := rt.NewString("volatile-target", false)
	if err != nil {
		t.Fatal(err)
	}
	per, err := rt.NewString("persistent-target", true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ptx.NewManager(h)
	if err != nil {
		t.Fatal(err)
	}
	w := &sweepWorld{h: h, m: m, want: []uint64{uint64(vol), uint64(per), 42}}
	for i := 0; i < 3; i++ {
		w.slots = append(w.slots, slot{obj, layout.FieldOff(i)})
	}
	w.run = func(tx *ptx.Tx) error {
		for i, s := range w.slots[:2] {
			if err := tx.WriteRefWord(s.obj, s.boff, layout.Ref(w.want[i])); err != nil {
				return err
			}
		}
		if err := tx.WriteWord(obj, w.slots[2].boff, w.want[2]); err != nil {
			return err
		}
		tx.Commit()
		return nil
	}
	return w
}

// reload boots img and attaches a manager: the recovery under test.
func reload(t *testing.T, tag string, img []byte) *pheap.Heap {
	t.Helper()
	re, err := pheap.Load(nvm.FromImage(img, nvm.Config{}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("%s: reload: %v", tag, err)
	}
	if _, err := ptx.NewManager(re); err != nil {
		t.Fatalf("%s: recovery: %v", tag, err)
	}
	return re
}

var sweepPolicies = []struct {
	name   string
	policy nvm.CrashPolicy
	seed   int64
}{
	{"flushed-only", nvm.CrashFlushedOnly, 0}, {"all-dirty", nvm.CrashAllDirty, 0},
	{"evict-1", nvm.CrashRandomEviction, 1}, {"evict-2", nvm.CrashRandomEviction, 2},
}

// TestCrashSweepTx crashes each transaction of the table after every
// flush it issues, under every crash policy, and inside every record
// flush that spans two lines with each subset of the two written back.
// After Load and NewManager the slots hold exactly the values from before
// the transaction or exactly the ones it stored; once it has returned,
// the latter; an aborted one is invisible throughout. The abort is also
// crashed a second time, inside the recovery of its first crash.
func TestCrashSweepTx(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(t *testing.T) *sweepWorld
		again bool // crash the recovery of every crash image too
	}{
		{"2-word transfer", func(t *testing.T) *sweepWorld { return wordsWorld(t, 2, false, false) }, false},
		{"16 words", func(t *testing.T) *sweepWorld { return wordsWorld(t, 16, false, false) }, false},
		{"256 words", func(t *testing.T) *sweepWorld { return wordsWorld(t, 256, false, false) }, false},
		{"256 words declared", func(t *testing.T) *sweepWorld { return wordsWorld(t, 256, true, false) }, false},
		{"abort", func(t *testing.T) *sweepWorld { return wordsWorld(t, 16, false, true) }, false},
		{"abort, recovery crashed too", func(t *testing.T) *sweepWorld { return wordsWorld(t, 2, true, true) }, true},
		{"3 reference slots, mark open", refsWorld, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			images := 0
			// check holds one crash image to pre or post (post alone once
			// the transaction has returned).
			check := func(w *sweepWorld, tag string, img []byte, pre []uint64, done bool) {
				t.Helper()
				images++
				got := w.read(reload(t, tag, img))
				if !(slices.Equal(got, w.want) || !done && slices.Equal(got, pre)) {
					t.Fatalf("%s: recovered %v, want %v (or, unfinished, %v)", tag, got, w.want, pre)
				}
			}
			// crashAt runs the transaction on a fresh world with arm's crash
			// armed and checks the images of every policy.
			crashAt := func(tag string, arm func(dev *nvm.Device)) bool {
				w := c.build(t)
				pre, dev := w.read(w.h), w.h.Device()
				arm(dev)
				crashed, err := faultdev.Run(dev, func() error { return w.run(w.m.Begin()) })
				dev.SetFlushFault(nil)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for _, p := range sweepPolicies {
					img := dev.CrashImage(p.policy, p.seed)
					check(w, tag+" "+p.name, img, pre, !crashed)
					for j := uint64(1); c.again && crashed; j++ {
						// Recover img, crash that recovery after its j-th
						// flush, and recover what is left.
						re := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
						faultdev.CrashIn(re, j)
						again, err := faultdev.Run(re, func() error {
							h, err := pheap.Load(re, klass.NewRegistry())
							if err == nil {
								_, err = ptx.NewManager(h)
							}
							return err
						})
						if err != nil {
							t.Fatalf("%s %s, recovery crashed at %d: %v", tag, p.name, j, err)
						}
						if !again {
							break
						}
						check(w, fmt.Sprintf("%s %s, recovery crashed at %d", tag, p.name, j), re.CrashImage(nvm.CrashAllDirty, 0), pre, false)
						check(w, fmt.Sprintf("%s %s, recovery crashed at %d", tag, p.name, j), re.CrashImage(nvm.CrashFlushedOnly, 0), pre, false)
					}
				}
				return crashed
			}

			// One clean pass notes which flushes are two-line record flushes.
			var torn []uint64
			w := c.build(t)
			lo, hi := logRange(w.h)
			first := w.h.Device().Stats().Flushes
			w.h.Device().SetFlushFault(func(off, n int, count uint64) bool {
				if off >= lo && off < hi && nvm.LineSpan(off, n) == 2 {
					torn = append(torn, count-first)
				}
				return false
			})
			if err := w.run(w.m.Begin()); err != nil {
				t.Fatal(err)
			}

			for k := uint64(1); ; k++ {
				if !crashAt(fmt.Sprintf("after flush %d", k), func(dev *nvm.Device) { faultdev.CrashIn(dev, k) }) {
					break
				}
			}
			// The record layout repeats every eight words; four torn flushes
			// see every alignment.
			torn = torn[:min(len(torn), 4)]
			for _, k := range torn {
				for mask := 0; mask < 4; mask++ {
					crashed := crashAt(fmt.Sprintf("inside flush %d, lines %02b kept", k, mask), func(dev *nvm.Device) {
						faultdev.CrashInsideFlush(dev, dev.Stats().Flushes+k, func(line int) bool { return mask&(1<<line) != 0 })
					})
					if !crashed {
						t.Fatalf("flush %d never came", k)
					}
				}
			}
			t.Logf("%d crash images, %d two-line record flushes torn", images, len(torn))
		})
	}
}

// logRange is the device range of h's log array body.
func logRange(h *pheap.Heap) (lo, hi int) {
	ref, _ := h.GetRoot(ptx.LogRootName)
	lo = h.OffOf(ref) + layout.ElemOff(layout.FTLong, 0)
	return lo, lo + h.ArrayLen(ref)*layout.WordSize
}

// TestLogBitFlipsNeverEscape flips every bit of the used part of the log
// in the image of an open 2-word transaction. Whatever a flip does to the
// transaction — a record that no longer validates is an un-logged store —
// attaching to the image neither panics nor stores anywhere but the log
// array and the two logged words.
func TestLogBitFlipsNeverEscape(t *testing.T) {
	w := wordsWorld(t, 2, false, false)
	tx := w.m.Begin()
	for _, s := range w.slots {
		if err := tx.WriteWord(s.obj, s.boff, 999); err != nil {
			t.Fatal(err)
		}
	}
	dev := nvm.FromImage(w.h.Device().CrashImage(nvm.CrashAllDirty, 0), nvm.Config{})
	h, err := pheap.Load(dev, klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	loaded := slices.Clone(dev.View(0, dev.Size()))
	lo, hi := logRange(h)
	first := h.OffOf(w.slots[0].obj) + w.slots[0].boff
	used := 3*nvm.LineSize + 2*24 // magic, padding and seq; two one-word records
	refused := 0
	for bit := 0; bit < used*8; bit++ {
		dev.CorruptBit(lo+bit/8, uint(bit%8))
		if _, err := ptx.NewManager(h); err != nil {
			refused++ // the format word: no store at all
		}
		now := dev.View(0, dev.Size())
		for _, seg := range [][2]int{{0, lo}, {hi, first}, {first + 2*layout.WordSize, dev.Size()}} {
			if !bytes.Equal(now[seg[0]:seg[1]], loaded[seg[0]:seg[1]]) {
				t.Fatalf("bit %d: recovery stored inside [%d,%d), outside the log [%d,%d) and the logged words at %d", bit, seg[0], seg[1], lo, hi, first)
			}
		}
		dev.WriteBytes(lo, loaded[lo:hi])
		dev.WriteBytes(first, loaded[first:first+2*layout.WordSize])
	}
	if refused != 64 {
		t.Fatalf("%d flips were refused; those of the format word, and only those, should be", refused)
	}
}
