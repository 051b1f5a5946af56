package pindex

import (
	"fmt"
	"time"

	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// RecoverStats reports what a recovery pass repaired.
type RecoverStats struct {
	Entries      int // live data nodes after the pass
	Sentinels    int // bucket sentinels encountered
	Pruned       int // committed-deleted nodes physically unlinked
	DirtyCleared int // leftover dirty marks retired

	// Salvage-mode amputations (always zero on a strict pass):
	Truncated    bool // the chain was cut at the last verifiable node
	LostValues   int  // entries dropped because their value storage was quarantined
	BucketsReset int  // bucket shortcuts cleared (no longer on the surviving chain)
}

// Salvaged reports whether the pass amputated anything.
func (st RecoverStats) Salvaged() bool {
	return st.Truncated || st.LostValues > 0 || st.BucketsReset > 0
}

// Recover repairs the index registered under name after a reload: it
// walks the split-ordered list once, clearing dirty marks that an
// in-flight publication left persisted (the link itself is durable —
// only the "known durable" bit is missing), physically unlinking every
// node whose delete mark persisted (the delete committed; the unlink
// just had not happened yet, or had not persisted), and recounting live
// entries. None of those repairs is flushed: a dirty bit that persists
// again is stripped again by the next pass, and a prune is a lazy unlink
// like any other, persisted by the next collection or redone by the next
// pass. Only salvage's amputations, which drop entries the image still
// holds, are flushed. Nodes whose link never persisted are not reachable
// from the reloaded image at all — they are unreachable allocation
// garbage the next collection reclaims — which is exactly the
// no-half-linked-nodes guarantee.
//
// The pass is idempotent and single-threaded: run it before index
// traffic starts (Open does, on attach). It must run after pgc crash
// recovery if the heap was mid-collection.
func Recover(h *pheap.Heap, name string) (RecoverStats, error) {
	if h.GCActive() {
		return RecoverStats{}, fmt.Errorf("pindex: heap is mid-collection; recover it first")
	}
	ix := &Index{h: h, name: name, pin: NoPin{}}
	if err := ix.resolveKlasses(); err != nil {
		return RecoverStats{}, err
	}
	if _, ok := h.GetRoot(name); !ok {
		return RecoverStats{}, fmt.Errorf("pindex: no index %q in this heap", name)
	}
	return recoverLocked(h, name, ix)
}

// cleanSlot strips a persisted dirty mark from the slot in memory and
// returns the slot's value without it. The value came from the image, so
// it is durable as it stands: the repair needs no flush. A lazy bit stays
// (readers strip it): it may be a prune this pass just installed, which
// the next collection must persist.
func cleanSlot(h *pheap.Heap, st *RecoverStats, obj layout.Ref, boff int) uint64 {
	w := h.GetWord(obj, boff)
	if w&tagDirty != 0 {
		w &^= tagDirty
		h.SetWord(obj, boff, w)
		st.DirtyCleared++
	}
	return w
}

// recoverLocked is the shared walk behind Recover and Open-attach; ix
// supplies resolved klasses and field offsets (and, via its options,
// whether the walk salvages). The caller guarantees quiescence (load
// time, or Open's pin).
//
// The salvage variant enforces never-fabricate in two moves. First, any
// link the walk cannot positively verify — it leaves the heap, enters a
// quarantined region, breaks split order, or the node behind it cannot
// be read — cuts the chain right there: the persisted truncation makes
// everything past the damage unreachable, losing entries but inventing
// none. Second, the bucket table is swept afterwards: shortcuts are
// direct sentinel references, so a sentinel that sits beyond a cut
// would resurrect its whole segment through the shortcut even though
// the chain no longer reaches it. Every bucket slot whose sentinel was
// not visited on the surviving chain is reset to null (the lazy
// split-ordered initialization re-splices it on demand).
func recoverLocked(h *pheap.Heap, name string, ix *Index) (RecoverStats, error) {
	if tel := h.Telemetry(); tel != nil {
		start := time.Now()
		before := h.Device().Stats()
		defer func() {
			tel.RecordSpan(telemetry.SpanRecoveryIdx, -1, -1, start, time.Since(start))
			tel.Shared().AtomicDevStats(nvm.SubRecovery, h.Device().Stats().Sub(before))
		}()
	}
	var st RecoverStats
	salvage := ix.opts.Salvage
	hdr, ok := h.GetRoot(name)
	if !ok {
		return st, fmt.Errorf("pindex: no index %q in this heap", name)
	}
	// The header, bucket table, and head sentinel are the structure's
	// spine: without them there is nothing to salvage *onto*, so they
	// stay fatal in both modes (the sharding layer quarantines the whole
	// shard instead).
	bw := cleanSlot(h, &st, hdr, ix.fBuckets)
	arr := layout.Ref(layout.UntagRef(layout.Ref(bw)))
	if arr == layout.NullRef || !h.Contains(arr) || h.RefQuarantined(arr) {
		return st, fmt.Errorf("pindex: %q: header has no bucket table", name)
	}
	head := layout.Ref(layout.UntagRef(layout.Ref(h.GetWord(arr, layout.ElemOff(layout.FTRef, 0)))))
	if head == layout.NullRef || (salvage && (!h.Contains(head) || h.RefQuarantined(head))) {
		return st, fmt.Errorf("pindex: %q: head sentinel missing", name)
	}
	st.Sentinels++

	var surviving map[layout.Ref]bool
	if salvage {
		surviving = map[layout.Ref]bool{head: true}
	}
	truncate := func(prev layout.Ref) {
		h.SetWord(prev, ix.fNext, uint64(layout.NullRef))
		h.FlushRange(prev, ix.fNext, 8)
		st.Truncated = true
	}

	prev := head
	walk := func() error {
		lastSort, lastKey := h.GetWord(prev, ix.fSort), h.GetWord(prev, ix.fKey)
		for {
			w := cleanSlot(h, &st, prev, ix.fNext)
			curr := layout.Ref(layout.UntagRef(layout.Ref(w)))
			if curr == layout.NullRef {
				return nil
			}
			if !h.Contains(curr) || h.RefQuarantined(curr) {
				if salvage {
					truncate(prev)
					return nil
				}
				return fmt.Errorf("pindex: %q: link to %#x outside the heap", name, uint64(curr))
			}
			cw := cleanSlot(h, &st, curr, ix.fNext)
			if cw&tagDel != 0 {
				// The delete mark persisted: the delete committed before the
				// crash. Finish its unlink — lazily, as Delete would — so
				// the key cannot resurrect; the image still reaches the
				// successor through the marked node.
				h.SetWord(prev, ix.fNext, uint64(layout.UntagRef(layout.Ref(cw)))|tagLazy)
				st.Pruned++
				continue
			}
			cs, ck := h.GetWord(curr, ix.fSort), h.GetWord(curr, ix.fKey)
			if !soLess(lastSort, lastKey, cs, ck) {
				if salvage {
					truncate(prev)
					return nil
				}
				return fmt.Errorf("pindex: %q: split order violated at %#x", name, uint64(curr))
			}
			if cs&1 == 1 {
				vw := cleanSlot(h, &st, curr, ix.fVal)
				val := layout.Ref(layout.UntagRef(layout.Ref(vw)))
				if salvage && val != layout.NullRef && h.RefQuarantined(val) {
					// The entry survived but its value storage is gone.
					// Drop the entry like a committed delete — reporting a
					// key with fabricated contents is the one forbidden
					// outcome.
					h.SetWord(prev, ix.fNext, uint64(layout.UntagRef(layout.Ref(cw))))
					h.FlushRange(prev, ix.fNext, 8)
					st.LostValues++
					continue
				}
				st.Entries++
			} else {
				st.Sentinels++
				if surviving != nil {
					surviving[curr] = true
				}
			}
			lastSort, lastKey = cs, ck
			prev = curr
		}
	}
	var err error
	if salvage {
		err = nvm.CatchMedia(walk)
		if _, media := err.(*nvm.MediaError); media {
			// The node behind prev.next could not be read; cut there.
			truncate(prev)
			err = nil
		}
	} else {
		err = walk()
	}
	if err != nil {
		return st, err
	}

	if salvage {
		n := h.ArrayLen(arr)
		for i := 1; i < n; i++ {
			boff := layout.ElemOff(layout.FTRef, i)
			ref := layout.Ref(layout.UntagRef(layout.Ref(h.GetWord(arr, boff))))
			if ref == layout.NullRef || surviving[ref] {
				continue
			}
			h.SetWord(arr, boff, uint64(layout.NullRef))
			h.FlushRange(arr, boff, 8)
			st.BucketsReset++
		}
	}

	// Journal the walk's verdict. The amputations above ended in their own
	// flush, and the other repairs are redone by the next pass if they are
	// lost, so the append needs no fence of its own.
	h.FlightRecorder().Append(blackbox.EvRecoveryIndex,
		uint64(st.Entries), uint64(st.Pruned), uint64(st.DirtyCleared))
	return st, nil
}
