package pindex

import (
	"math/bits"
	"sync/atomic"

	"espresso/internal/layout"
	"espresso/internal/telemetry"
)

// hintTable is the volatile shortcut over the durable list (package doc,
// "Volatile shortcut"): a direct-mapped DRAM table of key → data-node
// hints. One word per slot: the node's heap offset in the low hintOffBits
// bits and a 16-bit key fingerprint above them, so a slot that belongs to
// another key is told apart without a device load. Zero is an empty slot
// (no node sits at offset 0: the heap's metadata does).
type hintTable struct {
	epoch uint64 // pheap.LayoutEpoch the offsets are valid for
	shift uint   // slot = hash >> shift: the hash's top log2(len(slots)) bits
	slots []atomic.Uint64
}

const (
	hintOffBits = 48
	hintOffMask = 1<<hintOffBits - 1
	// minHintSlots keeps a small index from re-allocating at every few
	// inserts: 64 words are one allocation of 512 bytes.
	minHintSlots = 64
)

// hintFP is the fingerprint of a key's hash, positioned as stored. It is
// cut from bits 16–31: the slot index takes the hash's top bits and the
// bucket index its low ones, so keys that share a slot (or a bucket)
// still differ here.
func hintFP(hash uint64) uint64 { return (hash >> 16 & 0xffff) << hintOffBits }

// probe looks key up in the hint table. It returns the key's data node
// only after checking the node itself: the key matches exactly and the
// node's next word, read clean, carries no delete mark — at that instant
// the node is the live, durably linked resident for key, which is the
// operation's linearization point just as it is at the end of find.
// Anything else — no table for this epoch, empty slot, another key's
// fingerprint or key, a delete mark (the slot is cleared: the node will
// never be live again) — is a miss, NullRef, and the caller walks the
// bucket chain.
func (c *Ctx) probe(hash, key uint64) layout.Ref {
	ix := c.ix
	// The caller is pinned, so the epoch cannot move under it: every
	// offset in a table of the present epoch names the node it was
	// installed for (nodes move, and memory is reclaimed, only by events
	// that bump the epoch).
	if t := ix.hints.Load(); t != nil && t.epoch == ix.h.LayoutEpoch() {
		slot := &t.slots[hash>>t.shift]
		if w := slot.Load(); w != 0 && w&^hintOffMask == hintFP(hash) {
			node := ix.h.AddrOf(int(w & hintOffMask))
			if c.alloc.GetWord(node, ix.fKey) == key {
				if c.loadClean(node, ix.fNext)&tagDel == 0 {
					c.stats.HintHits++
					c.cell.Inc(telemetry.CtrIndexHintHits)
					return node
				}
				slot.CompareAndSwap(w, 0)
			}
		}
	}
	c.stats.HintMisses++
	c.cell.Inc(telemetry.CtrIndexHintMisses)
	return layout.NullRef
}

// hint records node as key's data node. The caller must know node's
// inbound link durable — find returned it as found, or insert's publish
// of it returned — so that a later probe, which checks only the node,
// never acts on a node a crash could still unlink. The table is sized by
// the entry count: the smallest power of two ≥ Len, started over empty
// when Len outgrows it or the layout epoch moved.
func (c *Ctx) hint(hash uint64, node layout.Ref) {
	ix := c.ix
	t := ix.hints.Load()
	epoch := ix.h.LayoutEpoch()
	if n := ix.Len(); t == nil || t.epoch != epoch || n > len(t.slots) {
		size := minHintSlots
		for size < n {
			size <<= 1
		}
		fresh := &hintTable{
			epoch: epoch,
			shift: uint(64 - bits.TrailingZeros(uint(size))),
			slots: make([]atomic.Uint64, size),
		}
		if !ix.hints.CompareAndSwap(t, fresh) {
			// Another ctx replaced the table first; its table serves, and
			// this one hint is not worth a second allocation.
			return
		}
		t = fresh
	}
	t.slots[hash>>t.shift].Store(uint64(ix.h.OffOf(node)) | hintFP(hash))
}
