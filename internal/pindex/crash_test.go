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
	// putNew builds the value box inside the operation (Ctx.PutNew) rather
	// than boxing it first and handing Put the ref.
	putNew bool
	// under, on a putNew, is played on a second ctx from inside the
	// value's init: after the put has searched, before it publishes.
	under *kvOp
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
	return append(ops, putNewRows(1, 2, 400)...)
}

// putNewRows are the PutNew cases both sweeps run: over an existing key,
// over an existing key that is deleted under the put (which re-inserts
// with the value it already built), for a fresh key (box and node one
// allocation run), and for fresh keys whose publication loses its CAS —
// to the same key landing first, so the put finds it resident after all
// and publishes the built value over it, and to a neighbour spliced in
// just ahead, so the put repoints its node and publishes again.
func putNewRows(existing, doomed, fresh int64) []kvOp {
	return []kvOp{
		{key: existing, val: 50000 + existing, putNew: true},
		{key: doomed, val: 50000 + doomed, putNew: true, under: &kvOp{del: true, key: doomed}},
		{key: fresh, val: 50000 + fresh, putNew: true},
		{key: fresh + 1, val: 50001 + fresh, putNew: true, under: &kvOp{key: fresh + 1, val: 60001 + fresh}},
		{key: fresh + 2, val: 50002 + fresh, putNew: true, under: &kvOp{key: justAhead(fresh + 2), val: 60002 + fresh}},
	}
}

// justAhead picks, out of a candidate range no script uses, the key whose
// data node sorts closest below key's — with 10^5 candidates against a
// hundred resident nodes, between key's predecessor and key.
func justAhead(key int64) int64 {
	target := dataSort(mixHash(key))
	best, bestSort := int64(0), uint64(0)
	for y := int64(100000); y < 200000; y++ {
		if s := dataSort(mixHash(y)); s < target && s > bestSort {
			best, bestSort = y, s
		}
	}
	return best
}

const absent = int64(-1)

// apply plays op (what ran under it first) onto the model (value absent
// == deleted).
func apply(model map[int64]int64, op kvOp) {
	if op.under != nil {
		apply(model, *op.under)
	}
	if op.del {
		model[op.key] = absent
	} else {
		model[op.key] = op.val
	}
}

// inFlight lists, for every key op touches, the values a crash during op
// may leave it with: what the model holds now, or the outcome of any
// step of op that could have been acknowledged or applied by then.
func inFlight(model map[int64]int64, op kvOp) map[int64][]int64 {
	allowed := map[int64][]int64{}
	for _, o := range []*kvOp{op.under, &op} {
		if o == nil {
			continue
		}
		before, ok := model[o.key]
		if !ok {
			before = absent
		}
		after := o.val
		if o.del {
			after = absent
		}
		allowed[o.key] = append(allowed[o.key], before, after)
	}
	return allowed
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

// play runs op on c: a delete, a put of a box built first (putBoxed), or
// — putNew — a PutNew whose init stores the value and then, if op.under
// is set, plays that on c2. A put run underneath must have cost the
// outer publication its CAS, or the row did not test what it is for.
func play(t *testing.T, h *pheap.Heap, c, c2 *Ctx, bk *klass.Klass, op kvOp) error {
	switch {
	case op.del:
		c.Delete(op.key)
		return nil
	case !op.putNew:
		return putBoxed(t, h, c, bk, op.key, op.val)
	}
	var underErr error
	built := 0
	retries := c.Stats().Retries
	err := c.PutNew(op.key, bk, func(box layout.Ref) {
		built++
		c.Allocator().SetWord(box, layout.FieldOff(0), uint64(op.val))
		if op.under != nil {
			underErr = play(t, h, c2, nil, bk, *op.under)
		}
	})
	if err == nil {
		err = underErr
	}
	if err == nil && built != 1 {
		err = fmt.Errorf("value built %d times", built)
	}
	if err == nil && op.under != nil && !op.under.del && c.Stats().Retries == retries {
		err = fmt.Errorf("the put of %d underneath did not cost the publication its CAS", op.under.key)
	}
	if err != nil {
		return fmt.Errorf("putNew %d: %v", op.key, err)
	}
	return nil
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

// verifyExact checks the reloaded index against the model. Keys the
// in-flight operation touched (inFlight; nil when none was) may hold any
// of the values listed for them, never anything else — in particular
// never a box whose field was not yet stored.
func verifyExact(t *testing.T, tag string, h *pheap.Heap, model map[int64]int64, inflight map[int64][]int64) {
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
		if _, ok := inflight[key]; ok {
			continue // checked below; may legitimately be in several states
		}
		got := read(key)
		if got != want {
			t.Fatalf("%s: key %d = %d, want %d", tag, key, got, want)
		}
		if want != absent {
			live++
		}
	}
	for key, allowed := range inflight {
		got := read(key)
		ok := false
		for _, v := range allowed {
			ok = ok || got == v
		}
		if !ok {
			t.Fatalf("%s: in-flight key %d = %d, want one of %v", tag, key, got, allowed)
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
		c, c2 := ix.NewCtx(), ix.NewCtx()

		model := map[int64]int64{}
		for key, v := range baseModel {
			model[key] = v
		}
		faultdev.CrashIn(dev, k)
		var inflight map[int64][]int64
		crashed, err := faultdev.Run(dev, func() error {
			for _, op := range script {
				inflight = inFlight(model, op)
				if err := play(t, h, c, c2, bk, op); err != nil {
					return err
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
		verifyExact(t, tag, h2, model, inflight)
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
		c, c2 := ix.NewCtx(), ix.NewCtx()

		model := map[int64]int64{}
		for key, v := range baseModel {
			model[key] = v
		}
		var inflight map[int64][]int64
		world := &phasedWorld{onStart: []func(){func() {
			for _, op := range script {
				inflight = inFlight(model, op)
				if err := play(t, h, c, c2, bk, op); err != nil {
					panic(err.Error())
				}
				apply(model, op)
				inflight = nil
			}
		}}}

		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error {
			_, err := pgc.CollectConcurrent(h, pgc.NoRoots{}, world, 1)
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
		if _, _, err := pgc.RecoverIfNeeded(h2); err != nil {
			t.Fatalf("%s: pgc recover: %v", tag, err)
		}
		verifyExact(t, tag, h2, model, inflight)
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

// warmHintSteps is warmHintScript plus the PutNew rows: an update and a
// deleted-under update through the hint, and fresh keys no hint names.
func warmHintSteps() []hintStep {
	steps := warmHintScript()
	for _, op := range putNewRows(29, 31, 500) {
		steps = append(steps, hintStep{kvOp: op})
	}
	return steps
}

// TestCrashWithWarmHints is the flush-boundary sweep with the volatile
// shortcut in play: every seeded key is read once (its hint installed),
// then updates, deletes, re-puts and helping gets run on hinted keys with
// a crash at boundary k, for every k the script reaches. The reloaded
// image must hold exactly the acknowledged mappings, and the reopened
// index must start with no table: its first probe is a miss.
func TestCrashWithWarmHints(t *testing.T) {
	pristine, baseModel := buildCrashBase(t)
	script := warmHintSteps()

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
		c, c2 := ix.NewCtx(), ix.NewCtx()
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
				if _, seeded := baseModel[st.key]; !seeded {
					continue // a fresh key: nothing to hint
				}
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
		var inflight map[int64][]int64
		crashed, err := faultdev.Run(dev, func() error {
			for i, st := range script {
				op := st.kvOp
				inflight = inFlight(model, op)
				beforeVal := inflight[op.key][0]
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
						c.alloc.CasWord(node, ix.fNext, cw, cw|tagDel|tagDirty)
						ix.size.Add(-1)
					} else {
						box, err := h.Alloc(bk, 0)
						if err != nil {
							return err
						}
						h.SetWord(box, layout.FieldOff(0), uint64(op.val))
						h.FlushRange(box, 0, bk.SizeOf(0))
						c.alloc.CasWord(node, ix.fVal, c.loadClean(node, ix.fVal), uint64(box)|tagDirty)
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
					if err := play(t, h, c, c2, bk, op); err != nil {
						return fmt.Errorf("step %d: %v", i, err)
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
		verifyExact(t, tag, h2, model, inflight)

		ix2, err := Open(h2, NoPin{}, "kv", Options{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", tag, err)
		}
		if ix2.hints.Load() != nil {
			t.Fatalf("%s: reopened index carries a hint table", tag)
		}
		cold := ix2.NewCtx()
		cold.Get(0)
		if st := cold.Stats(); st.HintHits != 0 || st.HintMisses != 1 {
			t.Fatalf("%s: first probe after reopen: %d hits, %d misses; want a miss", tag, st.HintHits, st.HintMisses)
		}
		cold.Release()
	}
}
