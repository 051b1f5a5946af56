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

// buildLazyBase seeds a Tracked heap with keys 0..159 (value 10*key),
// each box and node one allocation run, and collects it twice, so the
// heap is dense and in key order: the nodes of the keys
// TestCrashSweepLazyUnlinkAcrossCollect deletes lie above those of the
// keys it keeps, and its collection leaves most kept nodes — the owners
// of the lazy links — in place, where it neither moves nor flushes them.
// It returns the fully persisted image plus the model.
func buildLazyBase(t *testing.T) ([]byte, map[int64]int64) {
	t.Helper()
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 1 << 20, Mode: nvm.Tracked})
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
	for i := int64(0); i < 160; i++ {
		if err := play(t, h, c, nil, bk, kvOp{key: i, val: i * 10, putNew: true}); err != nil {
			t.Fatal(err)
		}
		model[i] = i * 10
	}
	c.Release()
	// The first collection finds the allocation regions' live objects
	// behind too much dead wood to stay put and evacuates them into an
	// empty region above; the second slides them down to the start.
	for i := 0; i < 2; i++ {
		if _, err := pgc.Collect(h, pgc.NoRoots{}); err != nil {
			t.Fatal(err)
		}
	}
	h.Device().FlushAll()
	return h.Device().CrashImage(nvm.CrashFlushedOnly, 0), model
}

// TestCrashSweepLazyUnlinkAcrossCollect sweeps the lazy-unlink protocol:
// 96 deletes, most leaving their node reachable in the image only through
// a link their unlink left unflushed; a collection, which must persist
// those links before it frees the nodes; then the mutation script, whose
// fresh keys land where the freed nodes were and whose own deletes leave
// lazy links the image never gets. It crashes at every flush boundary
// and checks both a flushed-only and a random-eviction image of each
// crash — and of the finished run — after pgc crash recovery and the
// index's own: exactly the committed mappings.
func TestCrashSweepLazyUnlinkAcrossCollect(t *testing.T) {
	pristine, baseModel := buildLazyBase(t)
	var doomed []kvOp
	for key := int64(64); key < 160; key++ {
		doomed = append(doomed, kvOp{del: true, key: key})
	}
	script := append(crashScript(),
		kvOp{key: 100, val: 1001},     // a key the collection freed comes back
		kvOp{del: true, key: 0},       // lazy links after the collection
		kvOp{del: true, key: 1},       //
		kvOp{key: 65, val: 6565},      // and a put behind them
		kvOp{del: true, key: 100},     // the revived key goes again
		kvOp{del: true, key: 159},     // already collected: absent
		kvOp{key: 1, val: 1111},       // re-insert where the lazy link is
		kvOp{key: 20000, val: 200000}, // one more fresh
	)
	policies := []nvm.CrashPolicy{nvm.CrashFlushedOnly, nvm.CrashRandomEviction}

	checkedPrune := false
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
		var inflight map[int64][]int64
		run := func(ops []kvOp) error {
			for _, op := range ops {
				inflight = inFlight(model, op)
				if err := play(t, h, c, c2, bk, op); err != nil {
					return err
				}
				apply(model, op)
				inflight = nil
			}
			return nil
		}

		var res pgc.Result
		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error {
			if err := run(doomed); err != nil {
				return err
			}
			if !checkedPrune {
				// Before the collection the image still passes through most
				// deleted nodes, reachable there only through a link left
				// lazy (a neighbour's flush can carry one along with its
				// line): the image's recovery pass has them to prune.
				checkedPrune = true
				pre, err := pheap.Load(nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
				if err != nil {
					return fmt.Errorf("pre-collect image: %v", err)
				}
				st, err := Recover(pre, "kv")
				if err != nil {
					return fmt.Errorf("pre-collect image: %v", err)
				}
				if st.Pruned < 64 {
					return fmt.Errorf("pre-collect image prunes %d of the %d deleted nodes, want at least 64", st.Pruned, len(doomed))
				}
			}
			var err error
			if res, err = pgc.Collect(h, pgc.NoRoots{}); err != nil {
				return err
			}
			return run(script)
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		for _, policy := range policies {
			ptag := fmt.Sprintf("%s policy=%d", tag, policy)
			h2, err := pheap.Load(nvm.FromImage(dev.CrashImage(policy, int64(k)), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
			if err != nil {
				t.Fatalf("%s: reload: %v", ptag, err)
			}
			if _, _, err := pgc.RecoverIfNeeded(h2); err != nil {
				t.Fatalf("%s: pgc recover: %v", ptag, err)
			}
			verifyExact(t, ptag, h2, model, inflight)
		}
		if !crashed {
			if res.LazyPersisted == 0 {
				t.Fatal("the collection persisted no lazy link")
			}
			t.Logf("covered %d flush boundaries; the collection persisted %d lazy links", k-1, res.LazyPersisted)
			return
		}
	}
}

// TestLazyUnlinkPersistedByCollect checks the unlink's own contract on a
// quiet index: a delete flushes its mark and nothing else and leaves its
// predecessor's link tagged RefLazy, readers walk through the tag, and
// a collection persists and clears exactly the tagged links, once.
func TestLazyUnlinkPersistedByCollect(t *testing.T) {
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 4 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(h, NoPin{}, "kv", Options{InitialBuckets: 1, MaxLoadFactor: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bk := boxKlass(t, h)
	c := ix.NewCtx()
	defer c.Release()
	for key := int64(0); key < 32; key++ {
		if err := putBoxed(t, h, c, bk, key, key); err != nil {
			t.Fatal(err)
		}
	}
	lazyLinks := func() int { n, _ := chainLinks(h, c, -1); return n }
	before := h.Device().Stats()
	for key := int64(0); key < 32; key += 2 {
		if !c.Delete(key) {
			t.Fatalf("key %d missing", key)
		}
	}
	if d := h.Device().Stats().Sub(before); d.FlushedLines != 16 || d.Fences != 16 {
		t.Fatalf("16 deletes: %d lines / %d fences, want 16 / 16", d.FlushedLines, d.Fences)
	}
	// The deletes went through the hint table and unlinked nothing; the
	// Gets' walks do. A run of deleted neighbours shares one lazy link:
	// its predecessor's.
	for key := int64(0); key < 32; key++ {
		if _, ok := c.Get(key); ok != (key%2 == 1) {
			t.Fatalf("Get(%d) present = %v after the deletes", key, ok)
		}
	}
	lazy := lazyLinks()
	if lazy == 0 {
		t.Fatal("16 deletes and the walks after them left no lazy link")
	}
	res, err := pgc.Collect(h, pgc.NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LazyPersisted != lazy || lazyLinks() != 0 {
		t.Fatalf("collection persisted %d lazy links and left %d, want %d and 0", res.LazyPersisted, lazyLinks(), lazy)
	}
	if res, err = pgc.Collect(h, pgc.NoRoots{}); err != nil || res.LazyPersisted != 0 {
		t.Fatalf("second collection: %d lazy links persisted, err %v; want 0", res.LazyPersisted, err)
	}
}

// chainLinks walks the list raw, from bucket 0's sentinel, counting the
// links tagged RefLazy and reporting how key's node is linked: 0 not at
// all, 1 live, 2 with its delete mark (key -1 asks for no node).
func chainLinks(h *pheap.Heap, c *Ctx, key int64) (lazy, state int) {
	ix := c.ix
	head := c.bucketHeadRead(layout.Ref(layout.UntagRef(layout.Ref(h.GetWord(c.header(), ix.fBuckets)))), 0)
	for node := head; node != layout.NullRef; {
		w := h.GetWord(node, ix.fNext)
		if w&tagLazy != 0 {
			lazy++
		}
		if node != head && h.GetWord(node, ix.fSort)&1 == 1 && int64(h.GetWord(node, ix.fKey)) == key {
			state = 1 + int(w&tagDel)
		}
		node = layout.UntagRef(layout.Ref(w))
	}
	return lazy, state
}

// TestHintedDeleteUnlinkedByNextWalk: a delete the hint table serves
// publishes the mark on the hinted node (one line, one fence) and leaves
// the node linked; the next walk of its bucket unlinks it, lazily; the
// collection after that persists that link and frees the node and its
// value.
func TestHintedDeleteUnlinkedByNextWalk(t *testing.T) {
	h, err := pheap.Create(klass.NewRegistry(), pheap.Config{DataSize: 4 << 20, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Open(h, NoPin{}, "kv", Options{InitialBuckets: 1, MaxLoadFactor: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	bk := boxKlass(t, h)
	c := ix.NewCtx()
	defer c.Release()
	for key := int64(0); key < 32; key++ {
		if err := putBoxed(t, h, c, bk, key, key); err != nil {
			t.Fatal(err)
		}
	}
	base, err := pgc.Collect(h, pgc.NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	const doomed = 5
	c.Get(doomed) // the collection forgot the table: hint the key again
	st, dev := c.Stats(), h.Device().Stats()
	if !c.Delete(doomed) {
		t.Fatalf("key %d missing", doomed)
	}
	if got := c.Stats(); got.HintHits != st.HintHits+1 {
		t.Fatal("the delete did not reach its node through the hint table")
	}
	if d := h.Device().Stats().Sub(dev); d.FlushedLines != 1 || d.Fences != 1 {
		t.Fatalf("hinted delete: %d lines / %d fences, want 1 / 1", d.FlushedLines, d.Fences)
	}
	if lazy, state := chainLinks(h, c, doomed); lazy != 0 || state != 2 {
		t.Fatalf("after the delete: %d lazy links, node state %d; want 0 and linked with its mark (2)", lazy, state)
	}
	if _, ok := c.Get(doomed); ok {
		t.Fatalf("key %d present after its delete", doomed)
	}
	if lazy, state := chainLinks(h, c, doomed); lazy != 1 || state != 0 {
		t.Fatalf("after the next walk: %d lazy links, node state %d; want 1 and unlinked (0)", lazy, state)
	}
	res, err := pgc.Collect(h, pgc.NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LazyPersisted != 1 || res.LiveObjects != base.LiveObjects-2 {
		t.Fatalf("collection persisted %d lazy links and kept %d objects; want 1 and %d (node and value freed)",
			res.LazyPersisted, res.LiveObjects, base.LiveObjects-2)
	}
}
