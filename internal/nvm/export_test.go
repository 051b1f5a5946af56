package nvm

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// OrU64Atomic atomically ORs mask into the word at the 8-aligned byte
// offset off and returns the word's previous value. No program path ORs
// into a device word; it stays for TestViewAccountingEquivalence, whose
// Or rows check a read-modify-write that writes only when the word
// changes. Accounting: one read per call; one write (and a dirtied line)
// only when the stored value actually changed.
func (d *Device) OrU64Atomic(off int, mask uint64) uint64 { return d.orU64Atomic(nil, off, mask) }

// OrU64Atomic is Device.OrU64Atomic counted in v.
func (v *View) OrU64Atomic(off int, mask uint64) uint64 { return v.d.orU64Atomic(v.c, off, mask) }

func (d *Device) orU64Atomic(c *cell, off int, mask uint64) uint64 {
	d.checkWord(off, "or")
	d.countRead(c, 8)
	if !hostLittleEndian {
		mask = bits.ReverseBytes64(mask)
	}
	addr := (*uint64)(unsafe.Pointer(&d.mem[off]))
	for {
		old := atomic.LoadUint64(addr)
		if old|mask != old {
			if !atomic.CompareAndSwapUint64(addr, old, old|mask) {
				continue
			}
			d.countWrite(c, 8)
			d.markDirty(off, 8)
		}
		if !hostLittleEndian {
			old = bits.ReverseBytes64(old)
		}
		return old
	}
}
