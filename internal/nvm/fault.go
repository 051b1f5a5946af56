package nvm

import "fmt"

// MediaError is the panic value raised by a read accessor when an
// installed read fault fires. Reads return values, not errors, so a
// failing load surfaces the way an uncorrectable media error does on
// real hardware: as a machine check the caller either contains or dies
// from. Salvage paths recover it explicitly (see CatchMedia); pshard's
// per-shard panic containment converts it into a shard error.
type MediaError struct {
	Off int // byte offset of the failed access
	N   int // length of the failed access
}

func (e *MediaError) Error() string {
	return fmt.Sprintf("nvm: media error reading [%d,%d)", e.Off, e.Off+e.N)
}

// SetReadFault installs fn to be consulted on every read access with the
// accessed byte range; returning true fails that access by panicking
// with *MediaError. Pass nil to remove. Like SetFlushHook, install only
// while the device is quiescent. A nil hook costs one predictable branch
// per read, so attaching a hook that always returns false leaves the
// device's traffic counters bit-identical to an unhooked run.
func (d *Device) SetReadFault(fn func(off, n int) bool) { d.readFault = fn }

// SetFlushFault installs fn to be consulted on every Flush with the
// flushed range and the running flush count; returning true drops the
// writeback (the covered lines do NOT reach the persisted view and stay
// dirty), modelling a flush lost in the memory controller's queue. All
// traffic counters still advance exactly as for an honest flush — the
// fault is invisible until a crash image is taken. Only meaningful in
// Tracked mode. Pass nil to remove.
func (d *Device) SetFlushFault(fn func(off, n int, flushCount uint64) bool) {
	d.flushFault = fn
	d.startOrdinal()
}

// CorruptBit flips one bit of the byte at off in the memory view and, in
// Tracked mode, the persisted view — simulating in-place media rot that
// no volatile state masks. Accounting is untouched: rot is not traffic.
func (d *Device) CorruptBit(off int, bit uint) {
	d.check(off, 1)
	if bit > 7 {
		panic(fmt.Sprintf("nvm: CorruptBit bit %d out of range", bit))
	}
	d.mem[off] ^= 1 << bit
	if d.mode == Tracked {
		d.persisted[off] ^= 1 << bit
	}
}

// failRead consults the read-fault hook for an n-byte access at off.
func (d *Device) failRead(off, n int) {
	if d.readFault != nil && d.readFault(off, n) {
		panic(&MediaError{Off: off, N: n})
	}
}

// CatchMedia runs fn, converting a *MediaError panic into a returned
// error. Any other panic propagates. It is the containment primitive for
// salvage code that must walk possibly-rotten media without dying.
func CatchMedia(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if me, ok := r.(*MediaError); ok {
				err = me
				return
			}
			panic(r)
		}
	}()
	return fn()
}
