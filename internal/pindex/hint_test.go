package pindex

import (
	"fmt"
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

// TestHintSlotCollision crowds one set: nine keys with distinct tags,
// one more than its ways, then a key whose tag ties with one of them. A
// slot of another tag must be told apart in DRAM — a lookup that finds
// none of its own costs exactly the device reads of the bare chain walk;
// a tied tag costs the one key read of the other key's node; a hit costs
// three (key, next, value); and no lookup ever returns another key's
// value.
func TestHintSlotCollision(t *testing.T) {
	// Ten keys keep the table at minHintSlots: 8 sets, picked by tag & 7.
	tag := func(k int64) uint64 { return mixHash(k) >> hintTagShift }
	// The tie is the key whose hash differs from base's in bit 0 alone:
	// the hash inverts (each xor-shift is its own inverse, and the odd
	// multiplier has one mod 2^64).
	inv := uint64(0xff51afd7ed558ccd)
	for i := 0; i < 5; i++ {
		inv *= 2 - 0xff51afd7ed558ccd*inv
	}
	unmix := func(h uint64) int64 {
		h ^= h >> 33
		h *= inv
		return int64(h ^ h>>33)
	}
	base := int64(1)
	tie := unmix(mixHash(base) ^ 1)
	if tie == base || tag(tie) != tag(base) {
		t.Fatalf("key %d does not tie with key %d", tie, base)
	}
	crowd := []int64{base} // nine distinct tags in base's set, base first
	tags := map[uint64]bool{tag(base): true}
	for k := int64(1); len(crowd) < hintWays+1; k++ {
		if tag(k)%8 == tag(base)%8 && !tags[tag(k)] {
			tags[tag(k)] = true
			crowd = append(crowd, k)
		}
	}
	keys := append(append([]int64(nil), crowd...), tie)

	h := newHeap(t, nvm.Direct, 8)
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := ix.NewCtx()
	defer c.Release()
	for _, k := range keys {
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
	for _, k := range keys {
		ix.hints.Store(nil) // no table: the bare walk
		walk[k] = reads(k)
	}
	if s := ix.hints.Load().slots(); s != minHintSlots {
		t.Fatalf("table of %d slots, want %d", s, minHintSlots)
	}

	// Nine keys, eight ways: every lookup is a hit or a walk that reads no
	// other key's node (no slot of the set carries its tag).
	ix.hints.Store(nil)
	hitOrWalk := func(k int64) bool {
		t.Helper()
		switch got := reads(k); got {
		case 3:
			return true
		case walk[k]:
			return false
		default:
			t.Fatalf("key %d cost %d device reads: neither a hit (3) nor its bare walk (%d)", k, got, walk[k])
			return false
		}
	}
	for pass := 0; pass < 3; pass++ {
		for _, k := range crowd {
			hitOrWalk(k)
		}
	}
	// The last eight settle into the eight ways and then stay.
	for pass := 0; pass < 3; pass++ {
		for _, k := range crowd[1:] {
			hitOrWalk(k)
		}
	}
	for _, k := range crowd[1:] {
		if !hitOrWalk(k) {
			t.Fatalf("key %d missed with eight keys in an eight-way set", k)
		}
	}
	if hitOrWalk(base) {
		t.Fatalf("key %d hit, a ninth key in a full set", base)
	}

	// base holds a slot now; tie shares its tag.
	for round := 0; round < 3; round++ {
		if got := reads(tie); got != walk[tie]+1 {
			t.Fatalf("tag tie cost %d device reads, want the walk's %d plus the key read", got, walk[tie])
		}
		if got := reads(tie); got != 3 {
			t.Fatalf("re-read of a hinted key cost %d device reads, want 3: key, next, value", got)
		}
		if got := reads(base); got != walk[base]+1 {
			t.Fatalf("tag tie cost %d device reads, want the walk's %d plus the key read", got, walk[base])
		}
	}
}

// TestHintsKeptAcrossGrowth grows one index's table through four
// doublings while it fills, then re-reads every key: re-filing keeps
// what the smaller tables held, so at least 95 % of the keys hit.
func TestHintsKeptAcrossGrowth(t *testing.T) {
	h := newHeap(t, nvm.Direct, 16)
	ix, err := Open(h, NoPin{}, "kv", Options{})
	if err != nil {
		t.Fatal(err)
	}
	bk := boxKlass(t, h)
	c := ix.NewCtx()
	defer c.Release()
	const n = 3000
	var sizes []int
	for k := int64(0); k < n; k++ {
		if err := putVal(c, bk, k, k); err != nil {
			t.Fatal(err)
		}
		if s := ix.hints.Load().slots(); len(sizes) == 0 || sizes[len(sizes)-1] != s {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) < 4 {
		t.Fatalf("table sizes %v: fewer than three doublings", sizes)
	}
	before := c.Stats()
	for k := int64(0); k < n; k++ {
		if got := getVal(c, k); got != k {
			t.Fatalf("key %d reads %d", k, got)
		}
	}
	st := c.Stats()
	hits, misses := st.HintHits-before.HintHits, st.HintMisses-before.HintMisses
	if hits+misses != n || float64(hits) < 0.95*n {
		t.Fatalf("re-read after table sizes %v: %d hits, %d misses of %d keys; want at least 95 %% hits", sizes, hits, misses, n)
	}
	t.Logf("table sizes %v; re-read hit %d of %d", sizes, hits, n)
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
