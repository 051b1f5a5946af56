package pindex

import (
	"sync/atomic"

	"espresso/internal/layout"
	"espresso/internal/telemetry"
)

// hintTable is the volatile shortcut over the durable list (package doc,
// "Volatile shortcut"): key → data-node hints in DRAM, grouped in sets of
// hintWays words, one cache line each. A key's set is picked by its hash
// from bit 32 up, bits neither pshard's routing (the top ones) nor the
// bucket index (the low ones) fix, so every set serves every shard and
// every chain. A word holds the hash's top 32 bits (the tag) above the
// node's heap offset>>4 (objects are 16-byte aligned), so a slot of
// another key is told apart without a device load. Zero is an empty slot
// (no node sits at offset 0: the heap's metadata does). The words are
// read and published atomically; a table still being built by
// refileHints is private and written plainly, since an atomic store is a
// locked instruction on amd64 and a growth copies every entry.
type hintTable struct {
	epoch uint64 // pheap.LayoutEpoch the offsets are valid for
	mask  uint64 // set = tag & mask
	sets  []hintSet
}

// hintSet is one cache line of slots. Go allocates a slice of
// power-of-two size at least 512 bytes on a boundary of 512 bytes or
// more, so no set straddles two lines.
type hintSet [hintWays]uint64

const (
	hintWays     = 8
	hintTagShift = 32
	hintOffMask  = 1<<hintTagShift - 1
	// minHintSlots keeps a small index from re-filing at every few
	// inserts: 8 sets are one allocation of 512 bytes.
	minHintSlots = 64
)

// hintSlots sizes a table for n entries: the smallest power of two at
// least twice n (and at least minHintSlots). An 8-way set keeps what
// falls into it only up to 8 keys; at half load a set overflows for under
// 1 % of the keys, where at full load it would for 14 %.
func hintSlots(n int) int {
	size := minHintSlots
	for size < 2*n {
		size <<= 1
	}
	return size
}

func newHintTable(epoch uint64, slots int) *hintTable {
	return &hintTable{epoch: epoch, mask: uint64(slots/hintWays - 1), sets: make([]hintSet, slots/hintWays)}
}

func (t *hintTable) slots() int { return len(t.sets) * hintWays }

// set is the set a key of this hash (or a slot word carrying its tag)
// files under.
func (t *hintTable) set(hash uint64) *hintSet { return &t.sets[hash>>hintTagShift&t.mask] }

// hintWord is the slot word naming node for hash, or 0 when the offset
// does not fit its 32 bits (a heap past 64 GiB: that node goes unhinted).
func hintWord(hash uint64, off int) uint64 {
	if uint64(off)>>4 > hintOffMask {
		return 0
	}
	return hash>>hintTagShift<<hintTagShift | uint64(off)>>4
}

// probe looks key up in the hint table. It returns the key's data node,
// with the node's clean next word, only after checking the node itself:
// the key matches exactly and the next word, read clean, carries no
// delete mark — at that instant the node is the live, durably linked
// resident for key, which is the operation's linearization point just as
// it is at the end of find. Anything else — no table for this epoch, no
// slot with key's tag, another key behind the tag, a delete mark (that
// slot is cleared: the node will never be live again) — is a miss,
// NullRef, and the caller walks the bucket chain.
func (c *Ctx) probe(hash, key uint64) (node layout.Ref, next uint64) {
	ix := c.ix
	// The caller is pinned, so the epoch cannot move under it: every
	// offset in a table of the present epoch names the node it was
	// installed for (nodes move, and memory is reclaimed, only by events
	// that bump the epoch).
	if t := ix.hints.Load(); t != nil && t.epoch == ix.h.LayoutEpoch() {
		tag := hash >> hintTagShift
		set := t.set(hash)
		for i := range set {
			w := atomic.LoadUint64(&set[i])
			if w == 0 || w>>hintTagShift != tag {
				continue
			}
			n := ix.h.AddrOf(int(w&hintOffMask) << 4)
			if c.alloc.GetWord(n, ix.fKey) != key {
				continue // a tag tie: another key's node
			}
			if next = c.loadClean(n, ix.fNext); next&tagDel == 0 {
				c.stats.HintHits++
				c.cell.Inc(telemetry.CtrIndexHintHits)
				return n, next
			}
			atomic.CompareAndSwapUint64(&set[i], w, 0)
		}
	}
	c.stats.HintMisses++
	c.cell.Inc(telemetry.CtrIndexHintMisses)
	return layout.NullRef, 0
}

// hint records node as key's data node. The caller must know node's
// inbound link durable — find returned it as found, or insert's publish
// of it returned — so that a later probe, which checks only the node,
// never acts on a node a crash could still unlink. The slot is the one
// already carrying key's tag (the key's older node, or a tie, which
// loses its hint), else an empty one, else the ctx's next victim in turn.
// With no table for this epoch, one is made empty here; a table that Len
// has outgrown is re-filed after the operation's pin (refileHints).
func (c *Ctx) hint(hash uint64, node layout.Ref) {
	ix := c.ix
	t := ix.hints.Load()
	if epoch := ix.h.LayoutEpoch(); t == nil || t.epoch != epoch {
		fresh := newHintTable(epoch, hintSlots(ix.Len()))
		if !ix.hints.CompareAndSwap(t, fresh) {
			// Another ctx replaced the table first; its table serves, and
			// this one hint is not worth a second allocation.
			return
		}
		t = fresh
	} else if 2*ix.Len() > t.slots() {
		c.refile = true // hintSlots(Len) outgrew it
	}
	w := hintWord(hash, ix.h.OffOf(node))
	if w == 0 {
		return
	}
	tag := hash >> hintTagShift
	set := t.set(hash)
	slot := -1
	for i := range set {
		o := atomic.LoadUint64(&set[i])
		if o == w {
			return
		}
		if o != 0 && o>>hintTagShift == tag {
			slot = i
			break
		}
		if o == 0 && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		slot = int(c.victim % hintWays)
		c.victim++
	}
	atomic.StoreUint64(&set[slot], w)
}

// unhint clears node's slot after Delete marked it through the hint, so
// the key's next probe costs no device load.
func (c *Ctx) unhint(hash uint64, node layout.Ref) {
	t := c.ix.hints.Load()
	if t == nil {
		return
	}
	w := hintWord(hash, c.ix.h.OffOf(node))
	set := t.set(hash)
	for i := range set {
		if atomic.CompareAndSwapUint64(&set[i], w, 0) {
			return
		}
	}
}

// refileHints doubles (or more) a table Len has outgrown, outside any
// pin: a private table is filled in one sequential pass, each old set's
// entries splitting into the sets whose index extends the old one by the
// tag's next bits — at most hintWays entries per new set, so none is
// dropped — and published by CAS. It touches no device word, so a
// collection may run meanwhile: the copy keeps the old table's epoch and
// reads as empty if that moved. Hints the old table takes during the copy
// are lost (a later miss re-records them), as is the copy itself if
// another ctx replaced the table first. Single-flight: a ctx that finds a
// copy under way leaves the growth to it.
func (c *Ctx) refileHints() {
	c.refile = false
	ix := c.ix
	if !ix.refiling.CompareAndSwap(false, true) {
		return
	}
	defer ix.refiling.Store(false)
	t := ix.hints.Load()
	size := hintSlots(ix.Len())
	if t == nil || t.epoch != ix.h.LayoutEpoch() || size <= t.slots() {
		return
	}
	grown := newHintTable(t.epoch, size)
	for i := range t.sets {
		for j := range t.sets[i] {
			w := atomic.LoadUint64(&t.sets[i][j])
			if w == 0 {
				continue
			}
			dst := grown.set(w)
			for k := range dst {
				if dst[k] == 0 {
					dst[k] = w
					break
				}
			}
		}
	}
	ix.hints.CompareAndSwap(t, grown)
}
