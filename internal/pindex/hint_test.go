package pindex

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// putVal boxes v on the ctx's own allocator (h.Alloc would serialize the
// goroutines of a stress test on the heap's default one) and puts it.
func putVal(c *Ctx, bk *klass.Klass, key, v int64) error {
	a := c.Allocator()
	box, err := a.Alloc(bk, 0)
	if err != nil {
		return err
	}
	a.SetWord(box, layout.FieldOff(0), uint64(v))
	a.FlushRange(box, 0, bk.SizeOf(0))
	return c.Put(key, box)
}

// getVal reads key's boxed value, absent when the key is.
func getVal(c *Ctx, key int64) int64 {
	box, ok := c.Get(key)
	if !ok {
		return absent
	}
	return int64(c.Allocator().GetWord(box, layout.FieldOff(0)))
}

// TestHintedSameKeyStress deletes and re-inserts hinted nodes under
// readers. Keys 0–3 have one writer each, playing a fixed script — op s
// puts value s, every fourth op deletes — and publishing how far it has
// got, so a reader knows exactly which states its Get may return: those
// of the ops between the last one acknowledged before the Get began and
// the last one started before it ended. Keys 100–103 are hammered by
// every writer at once; there a Get must return a value some Put of that
// very key wrote, or nothing.
func TestHintedSameKeyStress(t *testing.T) {
	h := newHeap(t, nvm.Direct, 32)
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	bk := boxKlass(t, h)
	const (
		writers = 4
		readers = 3
		opsPerW = 20000
		shared  = 100 // first shared key
	)
	state := func(s int64) int64 { // owned key's value after op s
		if s == 0 || s%4 == 0 {
			return absent
		}
		return s
	}
	var started, acked [writers]atomic.Int64
	var done atomic.Int32
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	finish := func(c *Ctx) {
		hits.Add(int64(c.Stats().HintHits))
		misses.Add(int64(c.Stats().HintMisses))
		c.Release()
		wg.Done()
	}
	checkShared := func(c *Ctx, key int64) error {
		if got := getVal(c, key); got != absent && got>>32 != key {
			return fmt.Errorf("shared key %d reads %#x, a value no put of it wrote", key, got)
		}
		return nil
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			c := ix.NewCtx()
			defer finish(c)
			defer done.Add(1)
			rng := rand.New(rand.NewSource(int64(w)))
			key := int64(w)
			for s := int64(1); s <= opsPerW; s++ {
				started[w].Store(s)
				if state(s) == absent {
					c.Delete(key)
				} else if err := putVal(c, bk, key, s); err != nil {
					errs <- err
					return
				}
				acked[w].Store(s)
				if got := getVal(c, key); got != state(s) {
					errs <- fmt.Errorf("writer %d after op %d reads %d, want %d", w, s, got, state(s))
					return
				}
				sk := shared + int64(rng.Intn(4))
				switch rng.Intn(3) {
				case 0:
					c.Delete(sk)
				case 1:
					if err := putVal(c, bk, sk, sk<<32|s); err != nil {
						errs <- err
						return
					}
				}
				if err := checkShared(c, sk); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			c := ix.NewCtx()
			defer finish(c)
			for done.Load() < writers {
				for w := 0; w < writers; w++ {
					lo := acked[w].Load()
					got := getVal(c, int64(w))
					hi := started[w].Load()
					ok := false
					for s := lo; s <= hi && !ok; s++ {
						ok = got == state(s)
					}
					if !ok {
						errs <- fmt.Errorf("key %d reads %d between ops %d and %d", w, got, lo, hi)
						return
					}
					if err := checkShared(c, shared+int64(w)); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Fatalf("%d hint hits, %d misses: the stress must take both paths", hits.Load(), misses.Load())
	}
}

// TestHintSlotCollision forces two keys into one slot. A fingerprint
// mismatch must be told apart in DRAM (the lookup costs exactly the
// device reads of the bare chain walk); equal fingerprints cost the one
// key read; and neither ever returns the other key's value.
func TestHintSlotCollision(t *testing.T) {
	// The first Put sizes the table at minHintSlots; three keys keep it.
	shift := uint(64 - bits.TrailingZeros(minHintSlots))
	base := int64(1)
	var otherFP, sameFP int64
	for k := base + 1; otherFP == 0 || sameFP == 0; k++ {
		if mixHash(k)>>shift != mixHash(base)>>shift {
			continue
		}
		if hintFP(mixHash(k)) == hintFP(mixHash(base)) {
			if sameFP == 0 {
				sameFP = k
			}
		} else if otherFP == 0 {
			otherFP = k
		}
	}

	h := newHeap(t, nvm.Direct, 8)
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := ix.NewCtx()
	defer c.Release()
	for _, k := range []int64{base, otherFP, sameFP} {
		if err := c.Put(k, val(t, h, k*10)); err != nil {
			t.Fatal(err)
		}
	}
	// reads is what one Get(key) costs the device, checked for its answer.
	reads := func(key int64) uint64 {
		t.Helper()
		before := h.Device().Stats().Reads
		ref, ok := c.Get(key)
		n := h.Device().Stats().Reads - before
		if !ok || valOf(h, ref) != key*10 {
			t.Fatalf("key %d: present=%v value=%d, want %d", key, ok, valOf(h, ref), key*10)
		}
		return n
	}
	walk := map[int64]uint64{}
	for _, k := range []int64{base, otherFP, sameFP} {
		ix.hints.Store(nil) // no table: the bare walk
		walk[k] = reads(k)
	}
	for round := 0; round < 3; round++ {
		reads(base) // the slot is base's now
		if got := reads(otherFP); got != walk[otherFP] {
			t.Fatalf("fingerprint mismatch cost %d device reads, the bare walk %d", got, walk[otherFP])
		}
		reads(base)
		if got := reads(sameFP); got != walk[sameFP]+1 {
			t.Fatalf("fingerprint tie cost %d device reads, want the walk's %d plus the key read", got, walk[sameFP])
		}
		if got := reads(sameFP); got != 3 {
			t.Fatalf("re-read of a hinted key cost %d device reads, want 3: key, next, value", got)
		}
	}
	if st := c.Stats(); st.HintHits == 0 {
		t.Fatal("no hint hit in the whole test")
	}
}

// TestHintsForgottenAcrossRebase: a rebase moves every address and bumps
// the layout epoch; the first probe afterwards must miss, and every key
// must still read its value.
func TestHintsForgottenAcrossRebase(t *testing.T) {
	h := newHeap(t, nvm.Direct, 8)
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := ix.NewCtx()
	defer c.Release()
	const n = 300
	for i := int64(0); i < n; i++ {
		if err := c.Put(i, val(t, h, i*10)); err != nil {
			t.Fatal(err)
		}
	}
	hot := int64(n - 1) // installed last: nothing has evicted it
	before := c.Stats()
	c.Get(hot)
	if c.Stats().HintHits != before.HintHits+1 {
		t.Fatal("warm key did not hit")
	}
	if err := h.Rebase(h.Base() + 1<<36); err != nil {
		t.Fatal(err)
	}
	before = c.Stats()
	ref, ok := c.Get(hot)
	if st := c.Stats(); st.HintHits != before.HintHits || st.HintMisses != before.HintMisses+1 {
		t.Fatalf("first probe after the rebase: +%d hits, +%d misses; want a miss",
			st.HintHits-before.HintHits, st.HintMisses-before.HintMisses)
	}
	if !ok || !h.Contains(ref) || valOf(h, ref) != hot*10 {
		t.Fatalf("key %d after rebase: ref %#x present=%v", hot, uint64(ref), ok)
	}
	for i := int64(0); i < n; i++ {
		if ref, ok := c.Get(i); !ok || valOf(h, ref) != i*10 {
			t.Fatalf("key %d after rebase: present=%v", i, ok)
		}
	}
	if c.Stats().HintHits == before.HintHits {
		t.Fatal("the table did not refill after the rebase")
	}
}
