package pheap

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync/atomic"

	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// Bitmap is the heap's persisted mark bitmap: one bit per data-heap word,
// an object marked at its first and last words. It lives in the heap image
// so that a crashed collection's recovery can summarize from it (paper
// §4.2: "the mark bitmap can be seen as a sketch of the whole heap before
// the real collection"). The collector marks into MarkBits, its volatile
// twin, and PersistMarkBitmap writes what changed to the device before the
// cycle is stamped.
type Bitmap struct {
	dev  *nvm.Device
	off  int // device offset of the first word
	bits int
}

// MarkBitmap returns the heap's persisted mark bitmap (one bit per
// data-heap word).
func (h *Heap) MarkBitmap() *Bitmap {
	return &Bitmap{dev: h.dev, off: h.geo.MarkBmpOff, bits: h.geo.DataSize / layout.WordSize}
}

// Len reports the number of bits.
func (b *Bitmap) Len() int { return b.bits }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	woff := b.off + i/64*8
	b.dev.WriteU64(woff, b.dev.ReadU64(woff)|1<<(uint(i)%64))
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	woff := b.off + i/64*8
	b.dev.WriteU64(woff, b.dev.ReadU64(woff)&^(1<<(uint(i)%64)))
}

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	return b.dev.ReadU64(b.off+i/64*8)&(1<<(uint(i)%64)) != 0
}

// ClearAll zeroes the bitmap (volatile store; persist with Persist).
func (b *Bitmap) ClearAll() {
	b.dev.Zero(b.off, (b.bits+63)/64*8)
}

// NextSet returns the first set bit ≥ from, or -1.
func (b *Bitmap) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	wi := from / 64
	lastW := (b.bits - 1) / 64
	if from >= b.bits {
		return -1
	}
	w := b.dev.ReadU64(b.off+wi*8) >> (uint(from) % 64) << (uint(from) % 64)
	for {
		if w != 0 {
			bit := wi*64 + bits.TrailingZeros64(w)
			if bit >= b.bits {
				return -1
			}
			return bit
		}
		wi++
		if wi > lastW {
			return -1
		}
		w = b.dev.ReadU64(b.off + wi*8)
	}
}

// ForEachSetBelow invokes fn with every set bit index below limit in
// ascending order, reading each backing word exactly once — the bulk
// decode the summary phase uses, where NextSet's per-bit word re-reads
// would multiply the pause-time device traffic by the object count. The
// bound lets a caller that knows the bitmap's used prefix (mark bits never
// lie above the allocation tops) pay for that prefix only, not the whole
// area.
func (b *Bitmap) ForEachSetBelow(limit int, fn func(bit int)) {
	forEachSetBelow(min(limit, b.bits), func(wi int) uint64 { return b.dev.ReadU64(b.off + wi*8) }, fn)
}

func forEachSetBelow(limit int, word func(wi int) uint64, fn func(bit int)) {
	if limit <= 0 {
		return
	}
	lastW := (limit - 1) / 64
	for wi := 0; wi <= lastW; wi++ {
		w := word(wi)
		for w != 0 {
			bit := wi*64 + bits.TrailingZeros64(w)
			if bit >= limit {
				return
			}
			fn(bit)
			w &= w - 1
		}
	}
}

// CountSet reports the number of set bits (diagnostics, tests).
func (b *Bitmap) CountSet() int {
	n := 0
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		n++
	}
	return n
}

// Persist flushes the bitmap's backing words, fenced.
func (b *Bitmap) Persist() { b.dev.Persist(b.off, (b.bits+63)/64*8) }

// MarkBits is the collector's volatile mark bitmap, word for word the
// layout of the device's. Parallel markers set its bits with atomic word
// operations; the heap keeps it from one collection to the next, so a
// steady collector allocates it once.
type MarkBits []uint64

// ResetMarkBits returns the heap's volatile mark bitmap with every bit
// clear. Only the holder of the collection slot calls it.
func (h *Heap) ResetMarkBits() MarkBits {
	if h.marks == nil {
		h.marks = make(MarkBits, h.geo.MarkBmpSize/8)
	}
	clear(h.marks)
	return h.marks
}

// TrySet sets bit i and reports whether this call flipped it from clear
// to set — the claim parallel marking dedups through: of N workers racing
// to mark one object's begin bit, exactly one observes it clear.
func (m MarkBits) TrySet(i int) bool {
	w, bit := &m[i/64], uint64(1)<<(uint(i)%64)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return true
		}
	}
}

// ForEachSetBelow is Bitmap.ForEachSetBelow over the volatile words.
func (m MarkBits) ForEachSetBelow(limit int, fn func(bit int)) {
	forEachSetBelow(min(limit, len(m)*64), func(wi int) uint64 { return m[wi] }, fn)
}

// PersistMarkBitmap makes the device's mark bitmap equal the volatile one
// ResetMarkBits handed out, and the compaction progress word read 0: what
// recovery starts from once the cycle is stamped. It compares the two
// bitmaps over the prefix either may hold set bits in — the used prefix
// of the heap, and the device's marked extent from the last persist (all
// of the area after Load) — writes only the lines that differ, flushes
// them, the progress line first, in ascending order, and fences once: no
// bitmap line when the marks did not change.
//
// Why comparing with the device's bitmap area is comparing with what is
// durable (Px86): nothing else writes the area, and every line this
// writes it flushes and fences before it returns, so between calls the
// area's memory view is its persisted view. A crash inside the batch
// leaves some lines new and some old before the cycle is stamped, and a
// restarted process compares the whole area again.
func (h *Heap) PersistMarkBitmap() {
	usedBits := (h.Top() - h.geo.DataOff) / layout.WordSize
	used := min(align((usedBits+7)/8, layout.LineSize), h.geo.MarkBmpSize)
	var batch []nvm.Range
	if h.CompactProgress() != 0 || h.dev.ReadU64(mProgressSum) != progressSum(0) {
		h.writeProgress(0)
		batch = append(batch, nvm.LineRange(mProgress, 16))
	}
	var chunk [64 * layout.LineSize]byte
	var line [layout.LineSize]byte
	for off, cover := 0, max(used, h.marksHi); off < cover; off += len(chunk) {
		old := chunk[:min(len(chunk), cover-off)]
		h.dev.ReadBytes(h.geo.MarkBmpOff+off, old)
		for l := 0; l < len(old); l += layout.LineSize {
			for i, w := range h.marks[(off+l)/8:][:layout.LineSize/8] {
				binary.LittleEndian.PutUint64(line[8*i:], w)
			}
			if bytes.Equal(line[:], old[l:l+layout.LineSize]) {
				continue
			}
			at := h.geo.MarkBmpOff + off + l
			h.dev.WriteBytes(at, line[:])
			if last := len(batch) - 1; last >= 0 && batch[last].Off+batch[last].N == at {
				batch[last].N += layout.LineSize
			} else {
				batch = append(batch, nvm.Range{Off: at, N: layout.LineSize})
			}
		}
	}
	if len(batch) > 0 {
		h.dev.PersistRanges(batch)
	}
	h.marksHi = used
}
