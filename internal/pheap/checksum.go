package pheap

import (
	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// Metadata checksums (heap format v5, the timestamp's since v6). Coverage
// is deliberately narrow: only the words whose misinterpretation is
// *silent* — a rotted region-top line changes where parsing starts, a
// rotted redo entry rewrites an arbitrary word, a rotted GC-phase word
// changes which recovery runs, a rotted global timestamp changes which
// bytes above a region top Load takes for objects. Payload data stays
// checksum-free: object headers are already structurally validated by
// parsing, and guarding every field store would put fences back on the
// fast paths this codebase exists to keep clean. Each checksum (an nvm.Mix
// chain) lives in the same cache line as the words it covers, so persisting
// it rides the flush the protocol already issues — zero extra fences.

// gcPhaseSum covers the reserved GC-phase word. Seeded with the word's metadata
// offset so a word copied from elsewhere in the line cannot validate.
func gcPhaseSum(phase uint64) uint64 {
	return nvm.Mix(heapMagic^mGCPhase, phase)
}

// globalTSSum covers the global GC timestamp — the allocation epoch Load
// validates headers against — seeded like gcPhaseSum.
func globalTSSum(ts uint64) uint64 {
	return nvm.Mix(heapMagic^mGlobalTS, ts)
}

// regionTopSum covers region r's top-table value. Salted with the
// region index so a line block-copied between regions fails — a top is
// only meaningful for the region it bounds.
func regionTopSum(r int, top uint64) uint64 {
	return nvm.Mix(nvm.Mix(heapMagic, uint64(r)), top)
}

// regionTopLineValid applies the top-line rule: an all-zero line is an
// untouched region (fresh NVM reads zero, and salvage resets
// quarantined lines to it); anything else must carry its checksum.
func regionTopLineValid(r int, top, sum uint64) bool {
	return (top == 0 && sum == 0) || sum == regionTopSum(r, top)
}

// redoSeed seeds the redo-batch checksum ("REDO" ^ heap magic).
const redoSeed = heapMagic ^ 0x5245444F

// redoSumAt computes the committed-batch checksum over the entry count
// and the first count {off, val} pairs as currently stored in the redo
// area. RedoCommit calls it after writing the entries (so the sum
// provably covers the committed bytes); validation calls it on load.
func redoSumAt(dev *nvm.Device, geo Geometry, count int) uint64 {
	base := geo.RedoOff
	s := nvm.Mix(redoSeed, uint64(count))
	for i := 0; i < count; i++ {
		s = nvm.Mix(s, dev.ReadU64(base+16+i*16))
		s = nvm.Mix(s, dev.ReadU64(base+16+i*16+8))
	}
	return s
}

func (h *Heap) redoSumFromDevice(count int) uint64 { return redoSumAt(h.dev, h.geo, count) }

// redoSumOff is the device offset of the redo-batch checksum: the last
// word of the redo area, outside the entry array.
func (h *Heap) redoSumOff() int { return h.geo.RedoOff + h.geo.RedoSize - 8 }

// regionTopIndex reports whether off is a region-top table value slot,
// and for which region — RedoApply uses it to refresh the line checksum
// whenever a batch republishes a top.
func (h *Heap) regionTopIndex(off int) (int, bool) {
	rel := off - h.geo.RegionTopOff
	if rel < 0 || rel >= h.geo.RegionTopSize || rel%layout.RegionTopStride != 0 {
		return 0, false
	}
	return rel / layout.RegionTopStride, true
}
