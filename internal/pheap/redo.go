package pheap

import (
	"fmt"

	"espresso/internal/nvm"
	"espresso/internal/telemetry/blackbox"
)

// The metadata redo log makes a batch of metadata updates atomic: the GC's
// finish step (rewrite forwarded root addresses, set the new top, clear
// the gcActive flag) must happen all-or-nothing, or a crash between the
// individual stores could leave forwarded roots with an active GC flag or
// vice versa.
//
// Layout at geo.RedoOff:
//
//	+0  state u64 (0 idle, 1 committed)
//	+8  count u64
//	+16 count × { offset u64; value u64 }
//	... (unused headroom) ...
//	+RedoSize-8  batch checksum u64 (v5; covers count and all entries)
//
// Protocol: write entries and the batch checksum, flush, fence; write
// count then state=1, flush, fence (commit point); apply entries with
// flushes; write state=0, flush, fence. Recovery re-applies a committed
// log — application is a set of absolute-offset stores, hence
// idempotent. The checksum is ordered with the entries (before the
// commit fence), so a committed state word guarantees a verifiable
// batch; it costs one flush call and zero extra fences per commit.

// RedoEntry is one 8-byte store to replay.
type RedoEntry struct {
	Off int
	Val uint64
}

// RedoCapacity reports how many entries fit in the log area (the
// trailing word is the batch checksum).
func (h *Heap) RedoCapacity() int { return (h.geo.RedoSize - 24) / 16 }

// RedoCommit persists the entry batch and marks it committed. It does not
// apply it; call RedoApply next. Splitting the two lets crash tests stop
// between commit and apply.
func (h *Heap) RedoCommit(entries []RedoEntry) {
	if len(entries) > h.RedoCapacity() {
		panic("pheap: redo log overflow")
	}
	base := h.geo.RedoOff
	for i, e := range entries {
		h.dev.WriteU64(base+16+i*16, uint64(e.Off))
		h.dev.WriteU64(base+16+i*16+8, e.Val)
	}
	h.dev.WriteU64(h.redoSumOff(), h.redoSumFromDevice(len(entries)))
	h.dev.Flush(base+16, len(entries)*16) // no entries: nothing flushed
	h.dev.Persist(h.redoSumOff(), 8)
	h.dev.WriteU64(base+8, uint64(len(entries)))
	h.dev.WriteU64(base, 1)
	h.dev.Persist(base, 16)
	// Journal after the commit fence: the batch is durable, and the
	// record rides the apply step's trailing fence.
	h.fr.Append(blackbox.EvRedoCommit, uint64(len(entries)), 0, 0)
}

// RedoPending reports whether a committed, unapplied log exists.
func (h *Heap) RedoPending() bool {
	return h.dev.ReadU64(h.geo.RedoOff) == 1
}

// RedoApply replays the committed log and retires it. Entries that land
// on a region-top table slot refresh the line checksum beside them, so a
// batch that republishes tops (the GC finish) leaves every covered line
// verifiable without carrying checksum entries of its own. Consecutive
// entries on one cache line share one flush, issued when the batch leaves
// the line — stores to a line persist in program order, so the line still
// goes from all-old to a prefix of the entries in order (the finish
// batch's timestamp, checksum and gcActive words are such a run).
func (h *Heap) RedoApply() {
	base := h.geo.RedoOff
	count := int(h.dev.ReadU64(base + 8))
	var line nvm.Range // the line the batch is in, not yet written back
	for i := 0; i < count; i++ {
		off := int(h.dev.ReadU64(base + 16 + i*16))
		val := h.dev.ReadU64(base + 16 + i*16 + 8)
		if l := nvm.LineRange(off, 8); l != line {
			h.dev.Flush(line.Off, line.N)
			line = l
		}
		h.dev.WriteU64(off, val)
		if r, ok := h.regionTopIndex(off); ok {
			h.dev.WriteU64(off+8, regionTopSum(r, val))
		}
	}
	h.dev.Persist(line.Off, line.N)
	h.dev.WriteU64(base, 0)
	h.dev.Persist(base, 8)
}

// redoValidate checks the redo state word and, for a committed batch,
// its checksum. Strict mode (salv == nil) errors on any failure.
// Salvage discards the unusable batch, which is sound in every
// reachable state: the only committer is the GC finish, whose final
// entry clears gcActive, and RedoApply persists entries in order — so
// at the moment of any crash either gcActive still reads 1 (pgc
// recovery re-derives the whole finish from the mark bitmap) or it
// reads 0 (every material entry had already been applied and the batch
// is spent).
func (h *Heap) redoValidate(salv *SalvageReport) error {
	base := h.geo.RedoOff
	state := h.dev.ReadU64(base)
	ok := true
	switch state {
	case 0:
		return nil
	case 1:
		count := int(h.dev.ReadU64(base + 8))
		if count < 0 || count > h.RedoCapacity() {
			ok = false
		} else if h.dev.ReadU64(h.redoSumOff()) != h.redoSumFromDevice(count) {
			ok = false
		}
	default:
		ok = false
	}
	if ok {
		return nil
	}
	if salv == nil {
		return fmt.Errorf("pheap: corrupt committed redo batch (state %d)", state)
	}
	h.dev.WriteU64(base, 0)
	h.dev.Persist(base, 8)
	salv.RedoDiscarded = true
	return nil
}
