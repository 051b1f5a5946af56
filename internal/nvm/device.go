// Package nvm simulates a byte-addressable non-volatile memory device
// fronted by a volatile CPU cache, in the style of an NVDIMM reached
// through clflush/sfence.
//
// The device exposes two views of its contents:
//
//   - the memory view (what loads see): every store is immediately visible,
//     exactly like DRAM-backed caches in front of an NVDIMM;
//   - the persisted view (what survives power loss): a store reaches it only
//     after the covering cache line is flushed, or if the simulator decides
//     the line was evicted on its own.
//
// Crash-consistency protocols (flush-before-publish, undo logs, redo logs)
// are *ordering* disciplines, so a faithful reproduction only needs the
// line-granular distinction between the two views, not real hardware. The
// device also accounts flush/fence/byte traffic, and Stats prices those
// counts with one fixed media-latency model so experiments can report
// device-level cost next to wall-clock time.
//
// Accounting has two homes. An access made through the Device's own
// methods counts in the ownerless counters, with atomic adds on one of
// stackstripe.Count line-padded stripes picked by the caller's stack —
// fine for tools, metadata and anything without an identity, and two
// goroutines rarely share a stripe. A context that is one goroutine at a
// time (a mutator's allocator, an index context, a GC worker) takes a
// View (view.go): the same accesses through the same code, counted in a
// padded cell only that owner writes. Stats sums every stripe and every
// live cell, so where a count is kept never changes what it adds up to.
package nvm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"espresso/internal/stackstripe"
)

// LineSize is the cache line size in bytes. Flush granularity, like
// clflush, is one line.
const LineSize = 64

// Mode selects how much bookkeeping the device performs.
type Mode int

const (
	// Direct keeps a single copy of the contents. Flushes and fences are
	// counted but there is no separate persisted view, so crash images are
	// unavailable. Use it for benchmarks.
	Direct Mode = iota
	// Tracked maintains the persisted shadow view and per-line dirty bits,
	// enabling CrashImage and crash-injection tests.
	Tracked
)

// Config describes a device.
type Config struct {
	// Size is the device capacity in bytes. It is rounded up to a multiple
	// of LineSize.
	Size int
	// Mode selects Direct (fast) or Tracked (crash-simulation) operation.
	Mode Mode
}

// The device never sleeps; media cost is priced from the counts after
// the fact, and these are the prices (3D-XPoint-class media: writes land
// in the 100–500 ns range, reads in 100–350 ns; the paper's NVDIMMs are
// DRAM-speed but a flush still pays the clflush round trip). Fences and
// stores that stay in cache are free in this model.
const (
	ModeledLineLatency = 300 * time.Nanosecond // per flushed cache line
	ModeledReadLatency = 100 * time.Nanosecond // per accounted device read
)

// Stats is the device traffic accounting. Counters are maintained by the
// device on every access; callers snapshot them with Device.Stats.
type Stats struct {
	Writes       uint64 // store operations
	BytesWritten uint64 // bytes stored
	Reads        uint64 // load operations
	BytesRead    uint64 // bytes loaded
	Flushes      uint64 // Flush calls
	FlushedLines uint64 // distinct lines written back by Flush calls
	Fences       uint64 // Fence calls
}

// ModeledFlushTime prices the interval's write-backs: flushed lines ×
// ModeledLineLatency. It is the cost model of paths that persist and
// barely read (allocation, index publication, reference stores).
func (s Stats) ModeledFlushTime() time.Duration {
	return time.Duration(s.FlushedLines) * ModeledLineLatency
}

// ModeledTime prices reads as well: ModeledFlushTime plus reads ×
// ModeledReadLatency — the cost model of the read-dominated paths
// (tracing, recovery).
func (s Stats) ModeledTime() time.Duration {
	return s.ModeledFlushTime() + time.Duration(s.Reads)*ModeledReadLatency
}

// Add returns the sum s + other, counter by counter — used to combine
// the traffic of disjoint measured intervals.
func (s Stats) Add(other Stats) Stats {
	return Stats{
		Writes:       s.Writes + other.Writes,
		BytesWritten: s.BytesWritten + other.BytesWritten,
		Reads:        s.Reads + other.Reads,
		BytesRead:    s.BytesRead + other.BytesRead,
		Flushes:      s.Flushes + other.Flushes,
		FlushedLines: s.FlushedLines + other.FlushedLines,
		Fences:       s.Fences + other.Fences,
	}
}

// Sub returns the difference s - prev, counter by counter. It is the usual
// way to account a measured interval.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Writes:       s.Writes - prev.Writes,
		BytesWritten: s.BytesWritten - prev.BytesWritten,
		Reads:        s.Reads - prev.Reads,
		BytesRead:    s.BytesRead - prev.BytesRead,
		Flushes:      s.Flushes - prev.Flushes,
		FlushedLines: s.FlushedLines - prev.FlushedLines,
		Fences:       s.Fences - prev.Fences,
	}
}

// counters is the device's internal atomic form of Stats: one stripe of
// the ownerless counters, which any goroutine bumps with an atomic add.
// Owned accesses count in their view's cell instead (view.go).
type counters struct {
	writes, bytesWritten, reads, bytesRead atomic.Uint64
	flushes, flushedLines, fences          atomic.Uint64
}

func (c *counters) load() Stats {
	return Stats{
		Writes:       c.writes.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Reads:        c.reads.Load(),
		BytesRead:    c.bytesRead.Load(),
		Flushes:      c.flushes.Load(),
		FlushedLines: c.flushedLines.Load(),
		Fences:       c.fences.Load(),
	}
}

// add folds s into the counters.
func (c *counters) add(s Stats) {
	c.writes.Add(s.Writes)
	c.bytesWritten.Add(s.BytesWritten)
	c.reads.Add(s.Reads)
	c.bytesRead.Add(s.BytesRead)
	c.flushes.Add(s.Flushes)
	c.flushedLines.Add(s.FlushedLines)
	c.fences.Add(s.Fences)
}

func (c *counters) reset() {
	for _, w := range []*atomic.Uint64{&c.writes, &c.bytesWritten, &c.reads, &c.bytesRead,
		&c.flushes, &c.flushedLines, &c.fences} {
		w.Store(0)
	}
}

// Device is a simulated NVM device. Traffic counters (ownerless and
// per-View) and the Tracked-mode dirty bitmap are atomic, so concurrent
// use is race-free provided the callers' protocol keeps concurrent
// writers and flushers on *disjoint cache lines* — exactly the
// discipline real hardware demands, and the one the PLAB allocator
// enforces (each mutator owns its region and its region's line in the
// top table). Accesses that may share lines (heap metadata, the klass
// segment, the name table, GC) remain serialized by their callers,
// mirroring the JVM's allocation locks and stop-the-world pauses. Two
// flushes of one line may overlap — a header's owner and another thread
// naming the object can both write it back (pheap's deferred header) — so
// the Tracked-mode copy of one line into the persisted view is serialized
// with other copies of that line; a write racing a flush of its line is
// still the caller's bug.
type Device struct {
	size      int
	mode      Mode
	mem       []byte
	persisted []byte   // Tracked only: the power-loss view
	dirty     []uint64 // Tracked only: bitmap, one bit per line (atomic)
	// lineMu (Tracked only) serializes the copies of one line into
	// persisted, striped by line number: without it a slow copy of an
	// older snapshot could land over a newer one another flush has fenced.
	lineMu [lineStripes]paddedMutex

	// stripes are the ownerless counters: an access counts in the stripe
	// its caller's stack picks (ownerless). The leading pad keeps them off
	// the lines holding the fields every access reads (mem, dirty, the
	// hooks), so neither two ownerless clients nor an ownerless and an
	// owned one write a line the other uses.
	_       [LineSize]byte
	stripes [stackstripe.Count]stripe

	// ordinal is the running device-wide flush count handed to the flush
	// hook and the flush fault. It is kept only while one is installed
	// (hooked): installing either sets it to Stats().Flushes, which is
	// exact because hooks are installed only while the device is
	// quiescent, and every flush after that bumps it, owned or not.
	ordinal atomic.Uint64
	_       [LineSize - 8]byte

	// views are the live per-owner accounting views (view.go); viewMu
	// guards the list and makes a view's release (fold into a stripe, drop
	// from the list) atomic against Stats. unowned is the view that
	// counts in the stripes itself.
	viewMu  sync.Mutex
	views   []*View
	unowned View

	// flushHook, if set, runs after every Flush with the running flush
	// count. Crash-injection tests use it to panic at a chosen boundary.
	flushHook func(flushCount uint64)
	noFlush   bool

	// readFault / flushFault are the media-fault hooks (see fault.go):
	// readFault returning true fails a read with a *MediaError panic;
	// flushFault returning true silently drops a flush's writeback.
	readFault  func(off, n int) bool
	flushFault func(off, n int, flushCount uint64) bool
}

// stripe is one stripe of the ownerless counters, padded to two lines:
// whatever the array's alignment, no line holds words of two stripes, and
// a stripe's address is its index shifted.
type stripe struct {
	counters
	_ [2*LineSize - unsafe.Sizeof(counters{})]byte
}

// ownerless is the stripe the calling goroutine's ownerless accesses
// count in. Any stripe would keep the sums exact; this one is, most of
// the time, written by nobody else.
func (d *Device) ownerless() *counters { return &d.stripes[stackstripe.Pick()].counters }

// lineStripes is how many locks Device.lineMu spreads the lines over: two
// flushers of different lines share one only by the line numbers' residue.
const lineStripes = 64

// paddedMutex is a mutex alone on its cache line.
type paddedMutex struct {
	sync.Mutex
	_ [LineSize - 8]byte
}

// New creates a device of cfg.Size bytes, zero-filled (fresh NVM DIMMs and
// freshly created heap files read as zero).
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("nvm: non-positive device size")
	}
	size := (cfg.Size + LineSize - 1) / LineSize * LineSize
	d := &Device{
		size: size,
		mode: cfg.Mode,
		mem:  alignedBytes(size),
	}
	d.unowned.d = d
	if cfg.Mode == Tracked {
		d.persisted = alignedBytes(size)
		d.dirty = make([]uint64, (size/LineSize+63)/64)
	}
	return d
}

// FromImage creates a device whose memory and persisted views both equal
// img, as after a reboot from a crash image or a file load.
func FromImage(img []byte, cfg Config) *Device {
	cfg.Size = len(img)
	d := New(cfg)
	copy(d.mem, img)
	if d.mode == Tracked {
		copy(d.persisted, img)
	}
	return d
}

// Size reports the device capacity in bytes.
func (d *Device) Size() int { return d.size }

// Mode reports the device bookkeeping mode.
func (d *Device) Mode() Mode { return d.mode }

// SetFlushHook installs fn to run after every Flush call with the running
// flush count. Pass nil to remove the hook. Install hooks only while the
// device is quiescent.
func (d *Device) SetFlushHook(fn func(flushCount uint64)) {
	d.flushHook = fn
	d.startOrdinal()
}

// hooked reports whether a flush hook or a flush fault is installed: the
// flushes that need an ordinal.
func (d *Device) hooked() bool { return d.flushHook != nil || d.flushFault != nil }

// startOrdinal carries the flush ordinal on from the counts, after a hook
// was installed or removed. While nothing is hooked the ordinal is not
// kept, so a flush writes no line another client's flush writes.
func (d *Device) startOrdinal() {
	if d.hooked() {
		d.ordinal.Store(d.Stats().Flushes)
	}
}

// SetNoFlush makes Flush count the flush and run the hook but write no
// line back: no flushed lines, persisted view and dirty bits untouched.
// FlushAll then counts one flush and no lines; Fence is unaffected. It
// models the recoverable GC without clflush, §6.4's baseline.
func (d *Device) SetNoFlush(v bool) { d.noFlush = v }

func (d *Device) check(off, n int) {
	if off < 0 || n < 0 || off+n > d.size {
		panic(fmt.Sprintf("nvm: access [%d,%d) outside device of %d bytes", off, off+n, d.size))
	}
}

func (d *Device) markDirty(off, n int) {
	if d.mode != Tracked || n == 0 {
		return
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	for l := first; l <= last; l++ {
		w := &d.dirty[l/64]
		bit := uint64(1) << (uint(l) % 64)
		for {
			old := atomic.LoadUint64(w)
			if old&bit != 0 || atomic.CompareAndSwapUint64(w, old, old|bit) {
				break
			}
		}
	}
}

// The access bodies below are shared by the Device's own methods and by
// View (view.go): each takes the cell its traffic counts in — nil for the
// device's ownerless counters, an owner's cell otherwise — so an owned and
// an ownerless access run the same bounds and alignment checks, consult
// the same fault hooks and dirty the same lines, and differ only in where
// the count lands.

func (d *Device) countWrite(c *cell, n int) {
	if c == nil {
		s := d.ownerless()
		s.writes.Add(1)
		s.bytesWritten.Add(uint64(n))
		return
	}
	if n == 8 {
		bump(&c.writeWords, 1)
		return
	}
	bump(&c.writeOps, 1)
	bump(&c.writeBytes, uint64(n))
}

func (d *Device) countRead(c *cell, n int) {
	if c == nil {
		s := d.ownerless()
		s.reads.Add(1)
		s.bytesRead.Add(uint64(n))
		return
	}
	if n == 8 {
		bump(&c.readWords, 1)
		return
	}
	bump(&c.readOps, 1)
	bump(&c.readBytes, uint64(n))
}

func (d *Device) checkWord(off int, op string) {
	d.check(off, 8)
	if off%8 != 0 {
		panic(fmt.Sprintf("nvm: unaligned atomic %s at %d", op, off))
	}
}

func (d *Device) writeU64(c *cell, off int, v uint64) {
	d.check(off, 8)
	binary.LittleEndian.PutUint64(d.mem[off:], v)
	d.countWrite(c, 8)
	d.markDirty(off, 8)
}

func (d *Device) readU64(c *cell, off int) uint64 {
	d.check(off, 8)
	d.failRead(off, 8)
	d.countRead(c, 8)
	return binary.LittleEndian.Uint64(d.mem[off:])
}

// WriteU64 stores v at byte offset off, little-endian.
func (d *Device) WriteU64(off int, v uint64) { d.writeU64(nil, off, v) }

// ReadU64 loads the little-endian uint64 at byte offset off.
func (d *Device) ReadU64(off int) uint64 { return d.readU64(nil, off) }

// alignedBytes allocates a zero-filled byte slice whose backing array is
// 8-byte aligned, so the word-atomic accessors below (and a Tracked
// flush's word-by-word copy) may point straight into it. n is always a
// multiple of LineSize here.
func alignedBytes(n int) []byte {
	words := make([]uint64, n/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// hostLittleEndian reports the byte order of native integer stores, so the
// atomic accessors can keep the device image little-endian on any host.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func (d *Device) writeU64Atomic(c *cell, off int, v uint64) {
	d.checkWord(off, "store")
	if !hostLittleEndian {
		v = bits.ReverseBytes64(v)
	}
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&d.mem[off])), v)
	d.countWrite(c, 8)
	d.markDirty(off, 8)
}

// WriteU64Atomic stores v at the 8-aligned byte offset off with a single
// atomic machine store. It is the word-store variant for slots that a
// concurrent reader (a lock-free index reader, a volatile collection
// patching remembered slots) may load while the owning mutator stores — the same pair of accesses an x86 CPU makes atomic for aligned
// words. Accounting and dirty tracking match WriteU64.
func (d *Device) WriteU64Atomic(off int, v uint64) { d.writeU64Atomic(nil, off, v) }

func (d *Device) compareAndSwapU64(c *cell, off int, old, new uint64) bool {
	d.checkWord(off, "cas")
	if !hostLittleEndian {
		old = bits.ReverseBytes64(old)
		new = bits.ReverseBytes64(new)
	}
	d.countRead(c, 8)
	if !atomic.CompareAndSwapUint64((*uint64)(unsafe.Pointer(&d.mem[off])), old, new) {
		return false
	}
	d.countWrite(c, 8)
	d.markDirty(off, 8)
	return true
}

// CompareAndSwapU64 atomically replaces the word at the 8-aligned byte
// offset off with new if it currently equals old, reporting whether the
// swap happened — the lock-free publication primitive (cmpxchg) under
// the persistent index's link-and-persist protocol. The comparison and
// store are one atomic machine operation against concurrent
// ReadU64Atomic/WriteU64Atomic/CompareAndSwapU64 on the same word.
// Accounting: every attempt counts one read; a successful swap
// additionally counts one write and dirties the line.
func (d *Device) CompareAndSwapU64(off int, old, new uint64) bool {
	return d.compareAndSwapU64(nil, off, old, new)
}

func (d *Device) readU64Atomic(c *cell, off int) uint64 {
	d.checkWord(off, "load")
	d.failRead(off, 8)
	d.countRead(c, 8)
	v := atomic.LoadUint64((*uint64)(unsafe.Pointer(&d.mem[off])))
	if !hostLittleEndian {
		v = bits.ReverseBytes64(v)
	}
	return v
}

// ReadU64Atomic loads the word at the 8-aligned byte offset off with a
// single atomic machine load — never torn, even against a concurrent
// WriteU64Atomic to the same word.
func (d *Device) ReadU64Atomic(off int) uint64 { return d.readU64Atomic(nil, off) }

// WriteU32 stores v at byte offset off, little-endian.
func (d *Device) WriteU32(off int, v uint32) {
	d.check(off, 4)
	binary.LittleEndian.PutUint32(d.mem[off:], v)
	d.countWrite(nil, 4)
	d.markDirty(off, 4)
}

// ReadU32 loads the little-endian uint32 at byte offset off.
func (d *Device) ReadU32(off int) uint32 {
	d.check(off, 4)
	d.failRead(off, 4)
	d.countRead(nil, 4)
	return binary.LittleEndian.Uint32(d.mem[off:])
}

// WriteU16 stores v at byte offset off, little-endian.
func (d *Device) WriteU16(off int, v uint16) {
	d.check(off, 2)
	binary.LittleEndian.PutUint16(d.mem[off:], v)
	d.countWrite(nil, 2)
	d.markDirty(off, 2)
}

// ReadU16 loads the little-endian uint16 at byte offset off.
func (d *Device) ReadU16(off int) uint16 {
	d.check(off, 2)
	d.failRead(off, 2)
	d.countRead(nil, 2)
	return binary.LittleEndian.Uint16(d.mem[off:])
}

// WriteByteAt stores one byte at off.
func (d *Device) WriteByteAt(off int, v byte) {
	d.check(off, 1)
	d.mem[off] = v
	d.countWrite(nil, 1)
	d.markDirty(off, 1)
}

// ReadByteAt loads one byte at off.
func (d *Device) ReadByteAt(off int) byte {
	d.check(off, 1)
	d.failRead(off, 1)
	d.countRead(nil, 1)
	return d.mem[off]
}

func (d *Device) writeBytes(c *cell, off int, p []byte) {
	d.check(off, len(p))
	copy(d.mem[off:], p)
	d.countWrite(c, len(p))
	d.markDirty(off, len(p))
}

func (d *Device) readBytes(c *cell, off int, p []byte) {
	d.check(off, len(p))
	d.failRead(off, len(p))
	copy(p, d.mem[off:])
	d.countRead(c, len(p))
}

// WriteBytes stores p at off.
func (d *Device) WriteBytes(off int, p []byte) { d.writeBytes(nil, off, p) }

// ReadBytes fills p from the memory view starting at off.
func (d *Device) ReadBytes(off int, p []byte) { d.readBytes(nil, off, p) }

// View returns a read-only window into the memory view. Mutating the
// returned slice bypasses accounting and dirty tracking; use the Write
// methods for stores. It exists for hot read paths (heap parsing, marking).
func (d *Device) View(off, n int) []byte {
	d.check(off, n)
	d.failRead(off, n)
	return d.mem[off : off+n : off+n]
}

func (d *Device) move(c *cell, dst, src, n int) {
	d.check(src, n)
	d.check(dst, n)
	d.failRead(src, n)
	copy(d.mem[dst:dst+n], d.mem[src:src+n])
	d.countWrite(c, n)
	d.countRead(c, n)
	d.markDirty(dst, n)
}

// Move copies n bytes from src to dst within the device, with memmove
// overlap semantics. It is the GC's object-copy primitive.
func (d *Device) Move(dst, src, n int) { d.move(nil, dst, src, n) }

func (d *Device) zero(c *cell, off, n int) {
	d.check(off, n)
	clear(d.mem[off : off+n])
	d.countWrite(c, n)
	d.markDirty(off, n)
}

// Zero clears n bytes starting at off.
func (d *Device) Zero(off, n int) { d.zero(nil, off, n) }

func (d *Device) flush(c *cell, off, n int) {
	if n <= 0 {
		return
	}
	d.check(off, n)
	first := off / LineSize
	last := (off + n - 1) / LineSize
	lines := uint64(last - first + 1)
	var s *counters
	if c == nil {
		s = d.ownerless()
		s.flushes.Add(1)
	} else {
		bump(&c.flushes, 1)
	}
	// Crash-injection hooks and FlushIndex fault plans name a flush by its
	// place in the device-wide order, so a hooked flush takes an ordinal.
	var count uint64
	if d.hooked() {
		count = d.ordinal.Add(1)
	}
	// A dropped flush still accounts like an honest one: the CPU issued
	// the clflush instructions, the loss happens downstream. Only the
	// persisted-view copy (and dirty-bit clearing) is skipped, so the
	// fault is observable solely through a later crash image.
	dropped := d.flushFault != nil && d.flushFault(off, n, count)
	if !d.noFlush {
		if c == nil {
			s.flushedLines.Add(lines)
		} else {
			bump(&c.flushedLines, lines)
		}
		if d.mode == Tracked && !dropped {
			for l := first; l <= last; l++ {
				lo, mu := l*LineSize, &d.lineMu[l%lineStripes]
				mu.Lock()
				// Word by word with atomic loads: another thread may be
				// storing into this line with WriteU64Atomic (two objects
				// can share a line), and a clflush snapshots each word
				// whole.
				for w := lo; w < lo+LineSize; w += 8 {
					*(*uint64)(unsafe.Pointer(&d.persisted[w])) = atomic.LoadUint64((*uint64)(unsafe.Pointer(&d.mem[w])))
				}
				mu.Unlock()
				w := &d.dirty[l/64]
				bit := uint64(1) << (uint(l) % 64)
				for {
					old := atomic.LoadUint64(w)
					if old&bit == 0 || atomic.CompareAndSwapUint64(w, old, old&^bit) {
						break
					}
				}
			}
		}
	}
	if d.flushHook != nil {
		d.flushHook(count)
	}
}

// Flush writes back the cache lines covering [off, off+n), like a run of
// clflush instructions. In Tracked mode the covered lines become part of
// the persisted view and their dirty bits clear.
func (d *Device) Flush(off, n int) { d.flush(nil, off, n) }

// Range is a byte range [Off, Off+N) of the device: one write-back of a
// protocol step (PersistRanges).
type Range struct{ Off, N int }

// LineRange widens [off, off+n) to cache-line boundaries: the lines a
// flush of it writes back.
func LineRange(off, n int) Range {
	lo := off &^ (LineSize - 1)
	hi := (off + n + LineSize - 1) &^ (LineSize - 1)
	return Range{Off: lo, N: hi - lo}
}

// DiffSpan trims the common prefix and suffix off two images of one
// length: outside [lo, hi) they hold the same bytes, and lo == hi when they
// are the same image. A writer that has read what it is about to overwrite
// stores — or flushes — that span and nothing else.
func DiffSpan(old, img []byte) (lo, hi int) {
	hi = len(img)
	for lo < hi && old[lo] == img[lo] {
		lo++
	}
	for lo < hi && old[hi-1] == img[hi-1] {
		hi--
	}
	return lo, hi
}

// MergeRanges sorts rs by offset and collapses overlapping and adjacent
// ranges, in place: flushing the result writes each covered line back
// once, provided the ranges went in line-aligned (LineRange). It is the
// write-combining step of every deferred-flush path — core's transitive
// and batch flushes, h2's commit.
func MergeRanges(rs []Range) []Range {
	if len(rs) < 2 {
		return rs
	}
	byOff := func(a, b Range) int { return a.Off - b.Off }
	if !slices.IsSortedFunc(rs, byOff) {
		slices.SortFunc(rs, byOff)
	}
	merged := rs[:1]
	for _, r := range rs[1:] {
		last := &merged[len(merged)-1]
		if r.Off > last.Off+last.N {
			merged = append(merged, r)
		} else if end := r.Off + r.N; end > last.Off+last.N {
			last.N = end - last.Off
		}
	}
	return merged
}

func (d *Device) fence(c *cell) {
	if c == nil {
		d.ownerless().fences.Add(1)
		return
	}
	bump(&c.fences, 1)
}

// Fence orders earlier flushes before later stores, like sfence. Flush is
// synchronous in this simulator, so Fence only accounts the instruction;
// protocols still call it wherever real hardware would need it so the
// counted cost is honest. A protocol step calls Persist or PersistRanges,
// which close the step's own write-backs with the fence.
func (d *Device) Fence() { d.fence(nil) }

// persist and persistRanges are the bodies of Persist and PersistRanges,
// shared with View like the access bodies above.
func (d *Device) persist(c *cell, off, n int) {
	d.flush(c, off, n)
	d.fence(c)
}

func (d *Device) persistRanges(c *cell, rs []Range) {
	for _, r := range rs {
		d.flush(c, r.Off, r.N)
	}
	d.fence(c)
}

// Persist is one protocol step (a set of write-backs closed by one sfence,
// in Px86's terms): Flush(off, n), then Fence. n <= 0 flushes nothing and
// still fences — a step that orders write-backs issued before it.
func (d *Device) Persist(off, n int) { d.persist(nil, off, n) }

// PersistRanges is Persist over several ranges: each is flushed as given,
// in order, and one fence follows. Nothing is merged (MergeRanges does
// that); an empty rs flushes nothing and still fences.
func (d *Device) PersistRanges(rs []Range) { d.persistRanges(nil, rs) }

// FlushAll persists the entire device, like a shutdown msync.
func (d *Device) FlushAll() {
	if d.noFlush {
		d.ownerless().flushes.Add(1)
		if d.hooked() {
			d.ordinal.Add(1)
		}
		return
	}
	d.Flush(0, d.size)
}

// Stats returns a snapshot of the traffic counters: every stripe of the
// ownerless counters plus every live view's cell. Each count is published
// as it is bumped, so the snapshot is exact whenever the device is
// quiescent; under concurrent traffic it is per-counter atomic, not
// globally consistent.
func (d *Device) Stats() Stats {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	var s Stats
	for i := range d.stripes {
		s = s.Add(d.stripes[i].load())
	}
	for _, v := range d.views {
		s = s.Add(v.c.stats())
	}
	return s
}

// ResetStats zeroes the traffic counters, the views' cells and the flush
// ordinal included. Like the hooks, call it only while the device is
// quiescent.
func (d *Device) ResetStats() {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	for i := range d.stripes {
		d.stripes[i].reset()
	}
	for _, v := range d.views {
		v.c.reset()
	}
	d.ordinal.Store(0)
}

// DirtyLines reports how many lines are modified but not yet persisted.
// It is zero in Direct mode.
func (d *Device) DirtyLines() int {
	n := 0
	for i := range d.dirty {
		for w := atomic.LoadUint64(&d.dirty[i]); w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
