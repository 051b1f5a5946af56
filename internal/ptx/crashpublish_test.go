package ptx

import (
	"testing"

	"espresso/internal/core"
	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
)

// TestCrashAtEveryPublishCommitBoundary drives a transaction whose
// commit publishes remembered-set deltas (an NVM→volatile store, an
// NVM→NVM store, and a primitive) through a crash at every flush
// boundary of the whole begin→write→commit sequence. After each crash
// the reloaded image must parse, ptx recovery must leave the three slots
// exactly all-old or all-new (undo-log atomicity), and the zeroing scan
// must null exactly the slots that persisted holding a (now-dead)
// volatile reference — the reload-side face of the remset discipline.
func TestCrashAtEveryPublishCommitBoundary(t *testing.T) {
	type world struct {
		rt       *core.Runtime
		h        *pheap.Heap
		m        *Manager
		obj      layout.Ref
		offs     [3]int
		vol, per layout.Ref
	}
	build := func() *world {
		rt, err := core.NewRuntime(core.Config{PJHDataSize: 8 << 20, NVMMode: nvm.Tracked})
		if err != nil {
			t.Fatal(err)
		}
		h, err := rt.CreateHeap("crashpub", 0)
		if err != nil {
			t.Fatal(err)
		}
		holder := klass.MustInstance("crash/Holder", nil,
			klass.Field{Name: "a", Type: layout.FTRef},
			klass.Field{Name: "b", Type: layout.FTRef},
			klass.Field{Name: "c", Type: layout.FTLong},
		)
		obj, err := rt.PNew(holder, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.FlushRange(obj, 0, holder.SizeOf(0))
		if err := h.SetRoot("crash/obj", obj); err != nil {
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
		m, err := NewManager(h)
		if err != nil {
			t.Fatal(err)
		}
		return &world{rt: rt, h: h, m: m, obj: obj,
			offs: [3]int{layout.FieldOff(0), layout.FieldOff(1), layout.FieldOff(2)},
			vol:  vol, per: per}
	}

	for crashAt := uint64(1); ; crashAt++ {
		w := build()
		faultdev.CrashIn(w.h.Device(), crashAt)
		crashed, err := faultdev.Run(w.h.Device(), func() error {
			tx := w.m.Begin()
			if err := tx.WriteRefWord(w.obj, w.offs[0], w.vol); err != nil {
				return err
			}
			if err := tx.WriteRefWord(w.obj, w.offs[1], w.per); err != nil {
				return err
			}
			if err := tx.WriteWord(w.obj, w.offs[2], 42); err != nil {
				return err
			}
			tx.Commit()
			return nil
		})
		if err != nil {
			t.Fatalf("crashAt=%d: %v", crashAt, err)
		}

		img := w.h.Device().CrashImage(nvm.CrashRandomEviction, int64(crashAt))
		re, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatalf("crashAt=%d: reload: %v", crashAt, err)
		}
		if _, err := NewManager(re); err != nil {
			t.Fatalf("crashAt=%d: recovery: %v", crashAt, err)
		}
		obj, ok := re.GetRoot("crash/obj")
		if !ok {
			t.Fatalf("crashAt=%d: holder root lost", crashAt)
		}
		a := layout.Ref(re.GetWord(obj, w.offs[0]))
		b := layout.Ref(re.GetWord(obj, w.offs[1]))
		c := re.GetWord(obj, w.offs[2])
		committed := a == w.vol && b == w.per && c == 42
		rolledBack := a == layout.NullRef && b == layout.NullRef && c == 0
		if !committed && !rolledBack {
			t.Fatalf("crashAt=%d: torn transaction: a=%#x b=%#x c=%d",
				crashAt, uint64(a), uint64(b), c)
		}

		// The zeroing scan — the reload path that consumes what the remset
		// discipline promises — must null exactly the slot holding the
		// dead volatile reference, and keep the intra-heap one.
		if _, err := re.ZeroingScan(re.Contains); err != nil {
			t.Fatalf("crashAt=%d: zeroing scan: %v", crashAt, err)
		}
		if committed {
			if got := layout.Ref(re.GetWord(obj, w.offs[0])); got != layout.NullRef {
				t.Fatalf("crashAt=%d: dead volatile ref survived zeroing: %#x", crashAt, uint64(got))
			}
			if got := layout.Ref(re.GetWord(obj, w.offs[1])); got != w.per {
				t.Fatalf("crashAt=%d: persistent ref zeroed: %#x", crashAt, uint64(got))
			}
		}

		if !crashed {
			// The hook never fired: the whole sequence completed, every
			// boundary has been swept.
			if !committed {
				t.Fatalf("clean run (crashAt=%d) did not commit", crashAt)
			}
			break
		}
	}
}
