package pheap

import (
	"math/bits"

	"espresso/internal/layout"
	"espresso/internal/nvm"
)

// Bitmap is a device-backed bitset. The mark bitmap keeps one bit per
// heap word (an object is marked at its starting word); the region bitmap
// keeps one bit per region. Both live in the heap image so they survive a
// crash once flushed (paper §4.2: "the mark bitmap can be seen as a sketch
// of the whole heap before the real collection").
type Bitmap struct {
	dev  bitmapDevice
	off  int // device offset of the first word
	bits int
}

// bitmapDevice is the device surface a Bitmap needs — satisfied by both
// *nvm.Device and a GC worker's own *nvm.View, so parallel GC workers
// can operate on the shared bitmap while their word traffic is counted
// per worker.
type bitmapDevice interface {
	ReadU64(off int) uint64
	WriteU64(off int, v uint64)
	OrU64Atomic(off int, mask uint64) uint64
	Zero(off, n int)
	Flush(off, n int)
	Fence()
}

// MarkBitmap returns the heap's mark bitmap (one bit per data-heap word).
func (h *Heap) MarkBitmap() *Bitmap {
	return &Bitmap{dev: h.dev, off: h.geo.MarkBmpOff, bits: h.geo.DataSize / layout.WordSize}
}

// MarkBitmapOn is MarkBitmap with the word operations routed through a
// parallel marking worker's view, so its bitmap traffic lands in its own
// Stats. All of them share the one device-backed bit array; only the
// accounting differs.
func (h *Heap) MarkBitmapOn(dev *nvm.View) *Bitmap {
	return &Bitmap{dev: dev, off: h.geo.MarkBmpOff, bits: h.geo.DataSize / layout.WordSize}
}

// RegionBitmap returns the heap's processed-region bitmap.
func (h *Heap) RegionBitmap() *Bitmap {
	return &Bitmap{dev: h.dev, off: h.geo.RegionBmpOff, bits: h.geo.Regions()}
}

// Len reports the number of bits.
func (b *Bitmap) Len() int { return b.bits }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	woff := b.off + i/64*8
	b.dev.WriteU64(woff, b.dev.ReadU64(woff)|1<<(uint(i)%64))
}

// SetAtomic sets bit i with an atomic fetch-OR on the backing word, safe
// against concurrent setters of other bits in the same word (parallel
// marking publishes end bits this way).
func (b *Bitmap) SetAtomic(i int) {
	b.dev.OrU64Atomic(b.off+i/64*8, 1<<(uint(i)%64))
}

// TrySetAtomic sets bit i and reports whether this call flipped it from
// clear to set — the claim operation parallel marking dedups through: of
// N workers racing to mark one object's begin bit, exactly one observes
// it clear and owns scanning that object.
func (b *Bitmap) TrySetAtomic(i int) bool {
	bit := uint64(1) << (uint(i) % 64)
	return b.dev.OrU64Atomic(b.off+i/64*8, bit)&bit == 0
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
	if limit > b.bits {
		limit = b.bits
	}
	if limit <= 0 {
		return
	}
	lastW := (limit - 1) / 64
	for wi := 0; wi <= lastW; wi++ {
		w := b.dev.ReadU64(b.off + wi*8)
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

// Persist flushes the bitmap's backing words.
func (b *Bitmap) Persist() {
	b.dev.Flush(b.off, (b.bits+63)/64*8)
	b.dev.Fence()
}

// PersistMarkBitmapUsed persists the mark bitmap's used prefix — the
// words covering bits up to the allocation top — plus whatever earlier
// prefix this process persisted (high-water), instead of the whole
// area. The invariant is that the persisted view beyond the last
// recorded prefix is all zeros: true at Create (the device is born
// zeroed), re-established after every persist (ClearAll zeroes the
// memory view before marking, and the flush covers the previous
// prefix), and forced by a one-time full flush after Load, when an
// earlier process's history is unknown. Collections over small live
// sets in large heaps therefore stop paying a pause-time flush of the
// entire bitmap area.
func (h *Heap) PersistMarkBitmapUsed() {
	usedBits := (h.Top() - h.geo.DataOff) / layout.WordSize
	usedBytes := align((usedBits+7)/8, 64)
	if usedBytes > h.geo.MarkBmpSize {
		usedBytes = h.geo.MarkBmpSize
	}
	cover := usedBytes
	if h.markBmpHi > cover {
		cover = h.markBmpHi
	}
	if cover > 0 {
		h.dev.Flush(h.geo.MarkBmpOff, cover)
	}
	h.dev.Fence()
	h.markBmpHi = usedBytes
}
