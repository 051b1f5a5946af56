package nvm

import (
	"sync/atomic"

	"espresso/internal/asym"
)

// Per-owner device accounting. The device's ownerless counters are
// bumped with locked adds by whoever comes. When they sat on one cache
// line, that line ping-ponged between two goroutines on two cores on
// every load and the bookkeeping became the thing being measured (a
// device read measured 17 ns from one goroutine and 169 ns from two).
// They are now spread over stripes picked by the caller's stack
// (device.go), so two ownerless clients rarely meet; but the stripes
// cannot say *who* issued the traffic, and the parallel-GC speedup claim
// is a statement about the busiest worker.
//
// A View is one owner's accounting view of a Device: the same accesses,
// through the same bodies (bounds and alignment checks, read-fault and
// flush-fault hooks, dirty tracking, the persisted view), counted in a
// cache-line-padded cell that only the owner writes. Cells are registered with the device, so Device.Stats is
// always the stripes plus every live cell, ResetStats zeroes both, and
// Release folds a cell into a stripe as it leaves the list — there is no
// point at which traffic is counted but not yet visible.
//
// Owners are the contexts that already are one-goroutine-at-a-time by
// contract: a pheap.Allocator (and through it a core.Mutator, a
// pindex.Ctx, a pshard.Ctx's per-shard handle) and a GC pool worker.
// Everything else uses the Device's own methods, or the Unowned view
// where code is written once for both, and pays the stripes.
//
// No count is shared on an owned path. The flush ordinal, by which
// crash-injection hooks and FlushIndex fault plans name a flush, is one
// device-wide counter, but it is kept only while such a hook is
// installed (Device.hooked), and a hooked flush then takes the same
// ordinal it would have taken had every flush been counted in it.

// cell is one owner's share of the traffic counters. The words are
// atomic because Stats reads them from other goroutines, but only the
// owner writes them, with a load and a plain store (asym.Store64) and
// never an add, so the owner's line stays Modified in its own cache and
// no count takes a lock.
//
// Counts are published per access rather than tallied in fields and
// published when the owner's operation ends. A publish call at the end of
// every operation of every owner kind (accessor, Do, index op, shard op,
// raw Alloc, GC phase) would be a window, each one forgotten, in which
// Stats is wrong — the Fold this type replaced, under another name.
// sync/atomic's Store would be an XCHG on amd64 (implicitly locked) and
// cost about what an uncontended atomic add does; a plain store makes the
// per-access publication cost what plain fields would, and leaves the
// count exact for any reader that synchronised with the owner (wg.Wait,
// Release, a stop), which is what Stats promises. The number
// behind that is BenchmarkAccounting's read/*, one ReadU64 per iteration
// from every goroutine on lines nobody else touches (ns/op, on 2-vCPU VMs
// whose second vCPU does not always give parallelism — read the columns
// against each other, not against an ideal halving). The first two rows
// were measured together when the ownerless counters were striped (the
// first is them before); the last two are the cell with each store, three
// alternating runs each on one VM:
//
//	                          -cpu 1    -cpu 2
//	one shared counter line    21–23    53–57
//	ownerless stripes          24–32    14–15
//	view, XCHG store           15–19    8–10
//	view, plain store (this)   14–15    5–7
//
// (An earlier mock-up of plain fields, published at op end, read 3–6 and
// 4–12; a read's checks and hooks, not its count, are most of what is
// left.) Under -race, and on hosts without membarrier, asym's store is
// the atomic one again.
//
// Almost every access is one 8-byte word, so those are counted in a
// word of their own that stands for an operation and its eight bytes at
// once — one store per load instead of two. Accesses of any other size
// count an operation and their bytes separately.
type cell struct {
	_ [8]uint64 // cache-line pad

	readWords, readOps, readBytes    atomic.Uint64
	writeWords, writeOps, writeBytes atomic.Uint64
	flushes, flushedLines, fences    atomic.Uint64

	_ [8]uint64 // cache-line pad
}

// bump adds n to a word only its owner writes.
func bump(w *atomic.Uint64, n uint64) { asym.Store64(w, w.Load()+n) }

func (c *cell) stats() Stats {
	rw, ww := c.readWords.Load(), c.writeWords.Load()
	return Stats{
		Writes:       ww + c.writeOps.Load(),
		BytesWritten: 8*ww + c.writeBytes.Load(),
		Reads:        rw + c.readOps.Load(),
		BytesRead:    8*rw + c.readBytes.Load(),
		Flushes:      c.flushes.Load(),
		FlushedLines: c.flushedLines.Load(),
		Fences:       c.fences.Load(),
	}
}

func (c *cell) reset() {
	for _, w := range []*atomic.Uint64{&c.readWords, &c.readOps, &c.readBytes,
		&c.writeWords, &c.writeOps, &c.writeBytes,
		&c.flushes, &c.flushedLines, &c.fences} {
		w.Store(0)
	}
}

// View is one owner's accounting view of a Device. Not safe for
// concurrent use: one goroutine at a time owns it (ownership may move
// between goroutines through anything that orders them, such as a
// mutex-guarded pool). The exception is the Unowned view, which counts
// in the device's ownerless counters and is as concurrency-safe as the
// Device itself.
type View struct {
	d *Device
	c *cell // nil for the Unowned view
}

// NewView registers and returns a new owner's view of d. Release it when
// the owner retires.
func (d *Device) NewView() *View {
	v := &View{d: d, c: new(cell)}
	d.viewMu.Lock()
	d.views = append(d.views, v)
	d.viewMu.Unlock()
	return v
}

// Unowned returns the view of d that belongs to nobody: its accesses
// count in the ownerless counters exactly like the Device's own methods.
// It lets code that serves both an owner and ownerless callers be
// written once against *View.
func (d *Device) Unowned() *View { return &d.unowned }

// Stats reports the traffic v's owner issued through it since it was
// created (or since the last ResetStats), Flushes included. Zero for the
// Unowned view, whose traffic is indistinguishable from any other
// ownerless access.
func (v *View) Stats() Stats {
	if v.c == nil {
		return Stats{}
	}
	return v.c.stats()
}

// Ops is a view's traffic counted in device operations only — the four
// numbers owner-side attribution (AllocatorStats, telemetry's dev.*
// counters) is kept in. It is cheap enough to take before and after every
// operation, which is how an owner charges itself what the device saw
// instead of what it expects to have issued.
type Ops struct{ Reads, Writes, FlushedLines, Fences uint64 }

// Sub returns o - prev, field by field: what an owner issued between two
// readings of its view.
func (o Ops) Sub(prev Ops) Ops {
	return Ops{o.Reads - prev.Reads, o.Writes - prev.Writes, o.FlushedLines - prev.FlushedLines, o.Fences - prev.Fences}
}

// Ops reports the operations v's owner has issued through it. Owner-only,
// like every access; zero for the Unowned view.
func (v *View) Ops() Ops {
	c := v.c
	if c == nil {
		return Ops{}
	}
	return Ops{
		Reads:        c.readWords.Load() + c.readOps.Load(),
		Writes:       c.writeWords.Load() + c.writeOps.Load(),
		FlushedLines: c.flushedLines.Load(),
		Fences:       c.fences.Load(),
	}
}

// Release retires the view: its counts fold into the device's ownerless
// counters and the cell leaves the list Stats sums, in one step, so no
// snapshot sees them twice or not at all. The owner must not access the
// device through v afterwards; v.Stats keeps reporting the final tally.
// Releasing twice, or releasing the Unowned view, does nothing.
func (v *View) Release() {
	if v.c == nil {
		return
	}
	d := v.d
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	for i, o := range d.views {
		if o == v {
			last := len(d.views) - 1
			d.views[i] = d.views[last]
			d.views[last] = nil
			d.views = d.views[:last]
			d.ownerless().add(v.c.stats())
			return
		}
	}
}

// ReadU64 is Device.ReadU64 counted in v.
func (v *View) ReadU64(off int) uint64 { return v.d.readU64(v.c, off) }

// ReadU64Atomic is Device.ReadU64Atomic counted in v.
func (v *View) ReadU64Atomic(off int) uint64 { return v.d.readU64Atomic(v.c, off) }

// WriteU64 is Device.WriteU64 counted in v.
func (v *View) WriteU64(off int, val uint64) { v.d.writeU64(v.c, off, val) }

// WriteU64Atomic is Device.WriteU64Atomic counted in v.
func (v *View) WriteU64Atomic(off int, val uint64) { v.d.writeU64Atomic(v.c, off, val) }

// CompareAndSwapU64 is Device.CompareAndSwapU64 counted in v.
func (v *View) CompareAndSwapU64(off int, old, new uint64) bool {
	return v.d.compareAndSwapU64(v.c, off, old, new)
}

// ReadBytes is Device.ReadBytes counted in v.
func (v *View) ReadBytes(off int, p []byte) { v.d.readBytes(v.c, off, p) }

// WriteBytes is Device.WriteBytes counted in v.
func (v *View) WriteBytes(off int, p []byte) { v.d.writeBytes(v.c, off, p) }

// Move is Device.Move counted in v.
func (v *View) Move(dst, src, n int) { v.d.move(v.c, dst, src, n) }

// Zero is Device.Zero counted in v.
func (v *View) Zero(off, n int) { v.d.zero(v.c, off, n) }

// Flush is Device.Flush counted in v; the flush ordinal handed to the
// hooks is the device's.
func (v *View) Flush(off, n int) { v.d.flush(v.c, off, n) }

// Fence is Device.Fence counted in v.
func (v *View) Fence() { v.d.fence(v.c) }

// Persist is Device.Persist counted in v.
func (v *View) Persist(off, n int) { v.d.persist(v.c, off, n) }

// PersistRanges is Device.PersistRanges counted in v.
func (v *View) PersistRanges(rs []Range) { v.d.persistRanges(v.c, rs) }
