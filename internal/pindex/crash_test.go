package pindex

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pgc"
	"espresso/internal/pheap"
)

// Crash-injection suites: drive the index through a crash at every flush
// boundary (plus adversarial random eviction of unflushed lines) and
// require the reloaded index to contain exactly the committed mappings —
// every returned Put present with its value, every returned Delete
// honored, and the single in-flight operation either fully applied or
// fully absent, never torn.

// kvOp is one scripted mutation.
type kvOp struct {
	del bool
	key int64
	val int64 // boxed value for puts
}

// script mixes fresh inserts, overwrites of seeded keys, and deletes of
// both. Keys below 100 are the seeded population.
func crashScript() []kvOp {
	var ops []kvOp
	for i := int64(0); i < 8; i++ {
		ops = append(ops, kvOp{key: 200 + i, val: 2000 + i}) // fresh inserts
	}
	for i := int64(0); i < 6; i++ {
		ops = append(ops, kvOp{key: i, val: 9000 + i}) // overwrites
	}
	for i := int64(10); i < 16; i++ {
		ops = append(ops, kvOp{del: true, key: i}) // delete seeded
	}
	ops = append(ops,
		kvOp{del: true, key: 203}, // delete a fresh insert
		kvOp{key: 203, val: 3333}, // re-insert it
		kvOp{key: 300, val: 4444}, // one more fresh
		kvOp{del: true, key: 5},   // delete an overwritten key
		kvOp{del: true, key: 999}, // delete a key never present
		kvOp{key: 0, val: 9999},   // second overwrite of key 0
	)
	return ops
}

const absent = int64(-1)

// apply plays op onto the model (value absent == deleted).
func apply(model map[int64]int64, op kvOp) {
	if op.del {
		model[op.key] = absent
	} else {
		model[op.key] = op.val
	}
}

func boxKlass(t *testing.T, h *pheap.Heap) *klass.Klass {
	t.Helper()
	k, err := h.Registry().Define(klass.MustInstance("pindex/crashBox", nil,
		klass.Field{Name: "v", Type: layout.FTLong}))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// putBoxed allocates a fresh box holding v and puts it under key.
func putBoxed(t *testing.T, h *pheap.Heap, c *Ctx, bk *klass.Klass, key, v int64) error {
	box, err := h.Alloc(bk, 0)
	if err != nil {
		return err
	}
	h.SetWord(box, layout.FieldOff(0), uint64(v))
	h.FlushRange(box, 0, bk.SizeOf(0))
	return c.Put(key, box)
}

// buildCrashBase seeds a Tracked heap with keys 0..99 (value 10*key) and
// returns its fully persisted image plus the model.
func buildCrashBase(t *testing.T) ([]byte, map[int64]int64) {
	t.Helper()
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 4 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(h, NoPin{}, "kv", Options{InitialBuckets: 8, MaxLoadFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	bk := boxKlass(t, h)
	c := ix.NewCtx()
	model := map[int64]int64{}
	for i := int64(0); i < 100; i++ {
		if err := putBoxed(t, h, c, bk, i, i*10); err != nil {
			t.Fatal(err)
		}
		model[i] = i * 10
	}
	c.Release()
	h.Device().FlushAll()
	return h.Device().CrashImage(nvm.CrashFlushedOnly, 0), model
}

// verifyExact checks the reloaded index against the model, with the
// in-flight op (if any) allowed either its before or after state.
func verifyExact(t *testing.T, tag string, h *pheap.Heap, model map[int64]int64, inflight *kvOp, before int64) {
	t.Helper()
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", tag, err)
	}
	c := ix.NewCtx()
	defer c.Release()
	read := func(key int64) int64 {
		box, ok := c.Get(key)
		if !ok {
			return absent
		}
		if box == layout.NullRef {
			t.Fatalf("%s: key %d has null box", tag, key)
		}
		return int64(h.GetWord(box, layout.FieldOff(0)))
	}
	live := 0
	for key, want := range model {
		if inflight != nil && key == inflight.key {
			continue // checked below; may legitimately be either state
		}
		got := read(key)
		if got != want {
			t.Fatalf("%s: key %d = %d, want %d", tag, key, got, want)
		}
		if want != absent {
			live++
		}
	}
	if inflight != nil {
		after := absent
		if !inflight.del {
			after = inflight.val
		}
		got := read(inflight.key)
		if got != before && got != after {
			t.Fatalf("%s: in-flight key %d = %d, want %d (before) or %d (after)",
				tag, inflight.key, got, before, after)
		}
		if got != absent {
			live++
		}
	}
	if ix.Len() != live {
		t.Fatalf("%s: Len = %d, want %d", tag, ix.Len(), live)
	}
}

// TestCrashAtEveryFlushBoundary replays the mutation script against the
// seeded image, crashing at flush boundary k for every k the script
// reaches, rebooting from a random-eviction crash image, and requiring
// exactly the committed mappings back.
func TestCrashAtEveryFlushBoundary(t *testing.T) {
	pristine, baseModel := buildCrashBase(t)
	script := crashScript()

	for k := uint64(1); ; k++ {
		tag := fmt.Sprintf("k=%d", k)
		img := make([]byte, len(pristine))
		copy(img, pristine)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("%s: load: %v", tag, err)
		}
		ix, err := Open(h, NoPin{}, "kv", Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", tag, err)
		}
		bk := boxKlass(t, h)
		c := ix.NewCtx()

		model := map[int64]int64{}
		for key, v := range baseModel {
			model[key] = v
		}
		faultdev.CrashIn(dev, k)
		var inflight *kvOp
		var beforeVal int64
		crashed, err := faultdev.Run(dev, func() error {
			for i := range script {
				op := script[i]
				inflight = &op
				beforeVal = absent
				if v, ok := model[op.key]; ok {
					beforeVal = v
				}
				if op.del {
					c.Delete(op.key)
				} else if err := putBoxed(t, h, c, bk, op.key, op.val); err != nil {
					return fmt.Errorf("put %d: %v", op.key, err)
				}
				apply(model, op)
				inflight = nil
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !crashed {
			// The whole script fit below boundary k: coverage is complete.
			if k == 1 {
				t.Fatal("script issued no flushes")
			}
			t.Logf("covered %d flush boundaries over %d ops", k-1, len(script))
			return
		}

		after := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
		h2, err := pheap.Load(after, klass.NewRegistry())
		if err != nil {
			t.Fatalf("%s: reload: %v", tag, err)
		}
		verifyExact(t, tag, h2, model, inflight, beforeVal)
	}
}

// phasedWorld lets the test run index mutations inside the concurrent
// collection cycle: CollectConcurrent calls StartWorld right after the
// initial handshake (snapshot taken, SATB barrier armed) and the queued
// callback runs there — so its operations hit the armed barrier and the
// allocate-black window, and the flush-hook crash can land anywhere in
// op or collector work.
type phasedWorld struct{ onStart []func() }

func (w *phasedWorld) StopWorld() {}
func (w *phasedWorld) StartWorld() {
	if len(w.onStart) > 0 {
		fn := w.onStart[0]
		w.onStart = w.onStart[1:]
		fn()
	}
}

// TestCrashDuringConcurrentGCWithIndexTraffic crashes CollectConcurrent
// at every flush boundary while index mutations run inside the cycle;
// after pgc crash recovery plus the index recovery pass, the reloaded
// index must hold exactly the committed mappings.
func TestCrashDuringConcurrentGCWithIndexTraffic(t *testing.T) {
	pristine, baseModel := buildCrashBase(t)
	script := crashScript()

	// Crash boundaries step by 3 to bound runtime; the alloc/link
	// protocol repeats every few flushes, so stepped coverage still
	// crosses every distinct protocol edge.
	for k := uint64(1); ; k += 3 {
		tag := fmt.Sprintf("k=%d", k)
		img := make([]byte, len(pristine))
		copy(img, pristine)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("%s: load: %v", tag, err)
		}
		ix, err := Open(h, NoPin{}, "kv", Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", tag, err)
		}
		bk := boxKlass(t, h)
		c := ix.NewCtx()

		model := map[int64]int64{}
		for key, v := range baseModel {
			model[key] = v
		}
		var inflight *kvOp
		var beforeVal int64
		world := &phasedWorld{onStart: []func(){func() {
			for i := range script {
				op := script[i]
				inflight = &op
				beforeVal = absent
				if v, ok := model[op.key]; ok {
					beforeVal = v
				}
				if op.del {
					c.Delete(op.key)
				} else if err := putBoxed(t, h, c, bk, op.key, op.val); err != nil {
					panic(fmt.Sprintf("put %d: %v", op.key, err))
				}
				apply(model, op)
				inflight = nil
			}
		}}}

		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error {
			_, err := pgc.CollectConcurrent(h, pgc.NoRoots{}, world)
			return err
		})
		if err != nil {
			t.Fatalf("%s: collect: %v", tag, err)
		}
		if !crashed {
			t.Logf("covered flush boundaries up to %d (cycle complete)", k)
			return
		}

		after := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
		h2, err := pheap.Load(after, klass.NewRegistry())
		if err != nil {
			t.Fatalf("%s: reload: %v", tag, err)
		}
		if h2.GCActive() || h2.GCPhase() != pheap.GCPhaseIdle {
			if _, err := pgc.Recover(h2); err != nil {
				t.Fatalf("%s: pgc recover: %v", tag, err)
			}
		}
		verifyExact(t, tag, h2, model, inflight, beforeVal)
	}
}

// hintStep is one scripted step of the warm-hint sweep. stall steps play
// a publisher that died between its CAS and its flush — the word is left
// dirty and unflushed by hand — followed by the Get that finds the node
// through its hint and has to help.
type hintStep struct {
	kvOp
	stall bool
}

func warmHintScript() []hintStep {
	return []hintStep{
		{kvOp: kvOp{key: 3, val: 7003}},               // put-update through the hint
		{kvOp: kvOp{key: 7, val: 7007}, stall: true},  // get helps a stalled value publication
		{kvOp: kvOp{del: true, key: 20}},              // delete of a hinted key
		{kvOp: kvOp{key: 20, val: 7020}},              // re-put: the hint names the marked node
		{kvOp: kvOp{del: true, key: 23}, stall: true}, // get helps a stalled delete mark
		{kvOp: kvOp{key: 23, val: 7023}},              // and the key comes back
		{kvOp: kvOp{key: 3, val: 7103}},               // second update, same hinted node
		{kvOp: kvOp{del: true, key: 3}},               // delete it
		{kvOp: kvOp{del: true, key: 7}, stall: true},  // stalled delete of the helped key
		{kvOp: kvOp{key: 26, val: 7026}, stall: true}, // stalled update of an untouched hinted key
	}
}

// TestCrashWithWarmHints is the flush-boundary sweep with the volatile
// shortcut in play: every seeded key is read once (its hint installed),
// then updates, deletes, re-puts and helping gets run on hinted keys with
// a crash at boundary k, for every k the script reaches. The reloaded
// image must hold exactly the acknowledged mappings, and the reopened
// index must start with no table: its first probe is a miss.
func TestCrashWithWarmHints(t *testing.T) {
	pristine, baseModel := buildCrashBase(t)
	script := warmHintScript()

	for k := uint64(1); ; k++ {
		tag := fmt.Sprintf("k=%d", k)
		img := make([]byte, len(pristine))
		copy(img, pristine)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("%s: load: %v", tag, err)
		}
		ix, err := Open(h, NoPin{}, "kv", Options{})
		if err != nil {
			t.Fatalf("%s: open: %v", tag, err)
		}
		bk := boxKlass(t, h)
		c := ix.NewCtx()
		model := map[int64]int64{}
		for key, v := range baseModel {
			model[key] = v
			if _, ok := c.Get(key); !ok { // warm: the walk installs the hint, flushing nothing
				t.Fatalf("%s: seeded key %d missing", tag, key)
			}
		}
		// 100 keys share 128 slots: the script's own keys go in last, and
		// must not evict one another.
		for pass := 0; pass < 2; pass++ {
			for _, st := range script {
				if pass == 0 {
					c.Get(st.key)
				} else if c.probe(mixHash(st.key), uint64(st.key)) == layout.NullRef {
					t.Fatalf("%s: scripted key %d lost its slot to another scripted key", tag, st.key)
				}
			}
		}
		// get reads key through c and checks the answer against want.
		get := func(key, want int64) error {
			got := absent
			if box, ok := c.Get(key); ok {
				got = int64(h.GetWord(box, layout.FieldOff(0)))
			}
			if got != want {
				return fmt.Errorf("get %d = %d, want %d", key, got, want)
			}
			return nil
		}

		faultdev.CrashIn(dev, k)
		var inflight *kvOp
		var beforeVal int64
		crashed, err := faultdev.Run(dev, func() error {
			for i := range script {
				st := script[i]
				op := st.kvOp
				inflight, beforeVal = &op, model[op.key]
				hits := c.Stats().HintHits
				switch {
				case st.stall:
					// The dead publisher: CAS only, on the node the hint
					// table names (read back through the walk-free path).
					node := c.probe(mixHash(op.key), uint64(op.key))
					if node == layout.NullRef {
						return fmt.Errorf("step %d: key %d not hinted", i, op.key)
					}
					want := absent
					if op.del {
						cw := c.loadClean(node, ix.fNext)
						c.cas(node, ix.fNext, cw, cw|tagDel|tagDirty)
						ix.size.Add(-1)
					} else {
						box, err := h.Alloc(bk, 0)
						if err != nil {
							return err
						}
						h.SetWord(box, layout.FieldOff(0), uint64(op.val))
						h.FlushRange(box, 0, bk.SizeOf(0))
						c.cas(node, ix.fVal, c.loadClean(node, ix.fVal), uint64(box)|tagDirty)
						want = op.val
					}
					helps := c.Stats().HelpFlushes
					if err := get(op.key, want); err != nil {
						return fmt.Errorf("step %d: %v", i, err)
					}
					if c.Stats().HelpFlushes == helps {
						return fmt.Errorf("step %d: get of key %d helped nothing", i, op.key)
					}
				case op.del:
					c.Delete(op.key)
				default:
					if err := putBoxed(t, h, c, bk, op.key, op.val); err != nil {
						return fmt.Errorf("put %d: %v", op.key, err)
					}
					if beforeVal != absent && c.Stats().HintHits == hits {
						return fmt.Errorf("step %d: update of key %d walked the chain", i, op.key)
					}
				}
				apply(model, op)
				inflight = nil
				// Every acknowledged state reads back, hint or no hint.
				if err := get(op.key, model[op.key]); err != nil {
					return fmt.Errorf("step %d: %v", i, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !crashed {
			if k == 1 {
				t.Fatal("script issued no flushes")
			}
			t.Logf("covered %d flush boundaries over %d steps", k-1, len(script))
			return
		}

		after := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
		h2, err := pheap.Load(after, klass.NewRegistry())
		if err != nil {
			t.Fatalf("%s: reload: %v", tag, err)
		}
		verifyExact(t, tag, h2, model, inflight, beforeVal)

		ix2, err := Open(h2, NoPin{}, "kv", Options{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", tag, err)
		}
		if ix2.hints.Load() != nil {
			t.Fatalf("%s: reopened index carries a hint table", tag)
		}
		c2 := ix2.NewCtx()
		c2.Get(0)
		if st := c2.Stats(); st.HintHits != 0 || st.HintMisses != 1 {
			t.Fatalf("%s: first probe after reopen: %d hits, %d misses; want a miss", tag, st.HintHits, st.HintMisses)
		}
		c2.Release()
	}
}
