package nvm

import "sync/atomic"

// Per-owner device accounting. The device's shared counters sit on one
// cache line and every ownerless access bumps them with locked adds —
// correct, but with two goroutines on two cores that line ping-pongs on
// every load and the bookkeeping becomes the thing being measured
// (PR 11 measured a device read at 17 ns from one goroutine and 169 ns
// from two). Neither can the shared counters say *who* issued the
// traffic, and the parallel-GC speedup claim is a statement about the
// busiest worker.
//
// A View is one owner's accounting view of a Device: the same accesses,
// through the same bodies (bounds and alignment checks, read-fault and
// flush-fault hooks, dirty tracking, the persisted view), counted in a
// cache-line-padded cell that only the owner writes. Cells are
// registered with the device, so Device.Stats is always the shared
// counters plus every live cell, ResetStats zeroes both, and Release
// folds a cell into the shared counters as it leaves the list — there is
// no point at which traffic is counted but not yet visible.
//
// Owners are the contexts that already are one-goroutine-at-a-time by
// contract: a pheap.Allocator (and through it a core.Mutator, a
// pindex.Ctx, a pshard.Ctx's per-shard handle) and a GC pool worker.
// Everything else uses the Device's own methods, or the Unowned view
// where code is written once for both, and pays the shared counters as
// before.
//
// The one counter that stays shared on an owned path is the flush
// ordinal: crash-injection hooks and FlushIndex fault plans identify a
// flush by its place in the device-wide order. Flushes are two orders
// of magnitude rarer than loads.

// cell is one owner's share of the traffic counters. The words are
// atomic because Stats reads them from other goroutines, but only the
// owner writes them, with a load and a store and never an add, so the
// owner's line stays Modified in its own cache.
//
// Counts are published per access rather than tallied in plain fields
// and published when the owner's operation ends. The number behind that
// is BenchmarkAccounting, one ReadU64 per iteration from every goroutine
// on lines nobody else touches (ns/op over five runs, on the 2-vCPU
// sandbox this was written in, where a pure spin loop does not reliably
// speed up at -cpu 2 either — read the columns against each other, not
// against an ideal halving):
//
//	                      -cpu 1    -cpu 2
//	shared counters        28–38    28–132 (median 75)
//	view (this cell)       20–22    41–43
//	plain fields (mock-up)   3–6      4–12
//
// An atomic store is an XCHG on amd64, implicitly locked, so a published
// count costs about what an uncontended atomic add does and plain fields
// would save ~15 ns a load. They would also need a publish call at the
// end of every operation of every owner kind (accessor, Do, index op,
// shard op, raw Alloc, GC phase), and every one forgotten is a window in
// which Stats is wrong — the Fold this type replaced, under another
// name. What made two clients slower than one was the shared line, and
// that is gone either way; the rest is not worth a count that can lag.
//
// Almost every access is one 8-byte word, so those are counted in a
// word of their own that stands for an operation and its eight bytes at
// once — one store per load instead of two. Accesses of any other size
// count an operation and their bytes separately.
type cell struct {
	_ [8]uint64 // cache-line pad

	readWords, readOps, readBytes    atomic.Uint64
	writeWords, writeOps, writeBytes atomic.Uint64
	// flushes tallies the owner's own Flush calls for View.Stats only:
	// the device-wide count is the shared ordinal, which counted them.
	flushes              atomic.Uint64
	flushedLines, fences atomic.Uint64

	_ [8]uint64 // cache-line pad
}

// bump adds n to a word only its owner writes.
func bump(w *atomic.Uint64, n uint64) { w.Store(w.Load() + n) }

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

// unfolded is the part of the cell the shared counters have not seen:
// everything but the flush count.
func (c *cell) unfolded() Stats {
	s := c.stats()
	s.Flushes = 0
	return s
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
// in the device's shared counters and is as concurrency-safe as the
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
// count in the shared counters exactly like the Device's own methods.
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

// Release retires the view: its counts fold into the device's shared
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
			d.stats.add(v.c.unfolded())
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

// OrU64Atomic is Device.OrU64Atomic counted in v.
func (v *View) OrU64Atomic(off int, mask uint64) uint64 { return v.d.orU64Atomic(v.c, off, mask) }

// ReadBytes is Device.ReadBytes counted in v.
func (v *View) ReadBytes(off int, p []byte) { v.d.readBytes(v.c, off, p) }

// WriteBytes is Device.WriteBytes counted in v.
func (v *View) WriteBytes(off int, p []byte) { v.d.writeBytes(v.c, off, p) }

// Move is Device.Move counted in v.
func (v *View) Move(dst, src, n int) { v.d.move(v.c, dst, src, n) }

// Zero is Device.Zero counted in v.
func (v *View) Zero(off, n int) { v.d.zero(v.c, off, n) }

// Flush is Device.Flush with the flushed lines counted in v; the flush ordinal handed to the hooks is the device's.
func (v *View) Flush(off, n int) { v.d.flush(v.c, off, n) }

// Fence is Device.Fence counted in v.
func (v *View) Fence() { v.d.fence(v.c) }
