package pindex

import (
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
)

// TestIndexDeviceAttributionIsExact: what a ctx charges to dev.index.*
// and dev.alloc.* is what the device saw of it, exactly — per phase of a
// mixed run (fresh puts through table doublings, PutNew, hinted and cold
// gets, misses, updates, deletes, a scan, and a get that has to help a
// dirty link another ctx left behind), for whichever of two ctxs ran the
// phase: telemetry delta = the ctx's own view delta = the device delta,
// and the ctx's CtxStats + AllocatorStats lines and fences move by the
// same. At the end the two views together are the device's whole delta.
func TestIndexDeviceAttributionIsExact(t *testing.T) {
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	h.SetTelemetry(reg)
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	boxK, err := h.Registry().Define(klass.MustInstance("pindex/attrBox", nil,
		klass.Field{Name: "v", Type: layout.FTLong}))
	if err != nil {
		t.Fatal(err)
	}
	// Heap-level traffic, no ctx's: the box class's Klass-segment record,
	// and the name-table probe of the first operation after an epoch change
	// (the root cache serves every one after it).
	if _, err := h.EnsureKlass(boxK); err != nil {
		t.Fatal(err)
	}
	warm := ix.NewCtx()
	warm.Get(0)
	warm.Release()
	a, b := ix.NewCtx(), ix.NewCtx()
	dev := h.Device()
	start := dev.Stats()

	charged := func() nvm.Ops {
		ctr := reg.Snapshot().Counters
		var o nvm.Ops
		for _, sub := range []string{"index", "alloc"} {
			o.Reads += ctr["dev."+sub+".reads"]
			o.Writes += ctr["dev."+sub+".writes"]
			o.FlushedLines += ctr["dev."+sub+".flushed_lines"]
			o.Fences += ctr["dev."+sub+".fences"]
		}
		return o
	}
	phase := func(name string, c *Ctx, fn func()) {
		t.Helper()
		view0, tel0, dev0 := c.alloc.Ops(), charged(), dev.Stats()
		own0 := c.Stats().FlushedLines + c.AllocStats().FlushedLines
		ownF0 := c.Stats().Fences + c.AllocStats().Fences
		fn()
		view, tel, d := c.alloc.Ops().Sub(view0), charged().Sub(tel0), dev.Stats().Sub(dev0)
		if view.Reads == 0 {
			t.Fatalf("%s: the phase read nothing", name)
		}
		if tel != view {
			t.Errorf("%s: charged to dev.index.* + dev.alloc.* %+v, the ctx's view counted %+v", name, tel, view)
		}
		if got := (nvm.Ops{Reads: d.Reads, Writes: d.Writes, FlushedLines: d.FlushedLines, Fences: d.Fences}); got != view {
			t.Errorf("%s: device saw %+v, the ctx's view %+v", name, got, view)
		}
		lines := c.Stats().FlushedLines + c.AllocStats().FlushedLines - own0
		fences := c.Stats().Fences + c.AllocStats().Fences - ownF0
		if uint64(lines) != view.FlushedLines || uint64(fences) != view.Fences {
			t.Errorf("%s: CtxStats + AllocatorStats moved by %d lines / %d fences, the view by %d / %d",
				name, lines, fences, view.FlushedLines, view.Fences)
		}
	}
	box := func(c *Ctx, v int64) layout.Ref {
		ref, err := c.Allocator().AllocInit(boxK, 0, func(r layout.Ref) {
			c.Allocator().SetWord(r, layout.FieldOff(0), uint64(v))
		})
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}

	const n = 400
	phase("fresh puts, table doublings", a, func() {
		for k := int64(0); k < n; k++ {
			if err := a.Put(k, box(a, k)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if ix.Len() != n || reg.Snapshot().Counters["index.grows"] == 0 {
		t.Fatalf("len %d, grows %d: the run never doubled the table", ix.Len(), reg.Snapshot().Counters["index.grows"])
	}
	phase("PutNew, fresh and resident", b, func() {
		for k := int64(n - 50); k < n+50; k++ {
			if err := b.PutNew(k, boxK, func(r layout.Ref) { b.Allocator().SetWord(r, layout.FieldOff(0), uint64(k)) }); err != nil {
				t.Fatal(err)
			}
		}
	})
	phase("cold gets and misses", b, func() {
		ix.hints.Store(nil)
		for k := int64(0); k < n+100; k++ {
			if _, ok := b.Get(k); ok != (k < n+50) {
				t.Fatalf("get %d = %v", k, ok)
			}
		}
	})
	phase("hinted gets", a, func() {
		for k := int64(0); k < n; k++ {
			a.Get(k)
		}
	})
	if a.Stats().HintHits == 0 {
		t.Fatal("no get was served by the hint table")
	}
	phase("deletes", a, func() {
		for k := int64(0); k < n; k += 3 {
			if !a.Delete(k) {
				t.Fatalf("delete %d", k)
			}
		}
	})
	// A publication b's peer never finished: the link is in place and
	// dirty. Whoever reads it next persists it on the publisher's behalf.
	ix.hints.Store(nil)
	a.Get(1) // hints key 1 afresh
	node, _ := a.probe(mixHash(1), 1)
	if node == layout.NullRef {
		t.Fatal("key 1 has no hint")
	}
	h.SetWordAtomic(node, ix.fVal, h.GetWordAtomic(node, ix.fVal)|tagDirty) // this test's own, ownerless load and store
	phase("a get that helps", b, func() {
		if _, ok := b.Get(1); !ok {
			t.Fatal("get 1")
		}
	})
	if b.Stats().HelpFlushes != 1 {
		t.Fatalf("HelpFlushes = %d, want 1", b.Stats().HelpFlushes)
	}
	phase("scan", b, func() {
		seen := 0
		b.Scan(func(int64, layout.Ref) bool { seen++; return true })
		if seen != ix.Len() {
			t.Fatalf("scan saw %d of %d", seen, ix.Len())
		}
	})

	total, va, vb := dev.Stats().Sub(start), a.alloc.Ops(), b.alloc.Ops()
	views := nvm.Ops{Reads: va.Reads + vb.Reads + 1, Writes: va.Writes + vb.Writes + 1,
		FlushedLines: va.FlushedLines + vb.FlushedLines, Fences: va.Fences + vb.Fences}
	if got := (nvm.Ops{Reads: total.Reads, Writes: total.Writes, FlushedLines: total.FlushedLines, Fences: total.Fences}); got != views {
		t.Errorf("device delta %+v, the two views and the test's own two ops together %+v", got, views)
	}
	a.Release()
	b.Release()
}
