package pheap

import (
	"fmt"
	"sync"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// Crash-consistent allocation (paper §4.1), scaled out with persistent
// region-local allocation buffers (PLABs). The paper's three phases are
//
//	(1) fetch the Klass pointer from the constant pool,
//	(2) allocate memory and update top,
//	(3) initialize the object header,
//
// with the persisted replica of top and the klass-pointer store ordered
// by flush+fence. The paper bumps a single persisted top under one lock;
// here a region dispenser hands each mutator a whole GC region under a
// short lock, and the mutator then bump-allocates inside its PLAB
// lock-free, publishing through a *per-region* persisted top word in the
// region-top table (one cache line per region).
//
// The crash-ordering argument is the paper's, applied region by region,
// and strengthened the same way the seed strengthened it globally: for
// every allocation,
//
//	(a) the object body is zeroed, its header written, the caller's
//	    initializing stores (AllocInit's init, if any) run on the still
//	    unpublished object, and header and body persist together — one
//	    flush over the object, one fence — while the owning region's
//	    persisted top still lies at or below the object start;
//	(b) only then does that region's top word advance past the object
//	    (write + flush + fence) — the publication point.
//
// The persisted prefix [regionStart, top) of every region is therefore a
// parseable run of objects at all times: a crash truncates each region
// independently at its last persisted top and can never expose an
// uninitialized header below one — the paper's "stale top value →
// truncation" recovery rule, made unconditional and per-region. Folding
// the body into (a) adds a second guarantee for free: an object a caller
// goes on to link (pindex publishes a node with one CAS) is whole in the
// image before any durable word can name it, without a flush of its own.
// Alloc is AllocInit with no init: only the header has to beat the top,
// so only the header is flushed, the same device ops as ever.
//
// AllocInit2 puts two small objects back to back under one (a) and one
// (b): a single flush over both, a single fence, a single top advance.
// Flushes of different lines issued before one fence persist in any
// order, so a crash inside (a) can leave any subset of the run's lines
// in the image. That is harmless exactly where nothing parses yet: above
// the region's persisted top, which still lies at or below the run.
// Below the top — in a recycled hole — it is not: the first object's
// line could persist without the second's, and the region would parse
// from a whole first object into the stale bytes behind it. So the pair
// is a bump-path form only. While a recycled hole is attached (or the
// heap has one to attach) the two objects go in one at a time, each
// through the hole protocol below (covering filler first, then the
// object, its init folded into its own persist), the first complete
// before the second exists.
//
// Tops of different regions live on different cache lines
// (layout.RegionTopStride), so concurrent mutators never contend on a
// shared persisted word; that independence is exactly what lets
// allocation throughput scale with cores while keeping the same two
// flush+fence pairs per object (per run, for a pair) the single-top
// allocator paid.
//
// Region-top table encoding (device offsets):
//
//	0                          never used since the last GC reset
//	1 (regionTopHumongousCont) interior region of a humongous run
//	(start, start+RegionSize]  region parses up to this offset
//	> start+RegionSize         humongous run starts here; parses to run end
//
// Objects never straddle a region boundary; a PLAB that cannot fit the
// next object is retired — its tail plugged with a filler object and its
// top sealed at the region end. Objects larger than half a region
// ("humongous") are allocated on whole region-aligned runs at the
// dispenser frontier and are pinned by the collector.

// HugeThreshold is the size above which an allocation takes the humongous
// path.
const HugeThreshold = layout.RegionSize / 2

// regionTopHumongousCont marks a region as the interior of a humongous
// run: never a parse entry point (its bytes belong to the object that
// starts in an earlier region). 1 is unreachable as a real top, which are
// 16-aligned offsets inside the data area.
const regionTopHumongousCont = 1

// ErrOutOfMemory is returned when the data heap cannot fit an allocation.
var ErrOutOfMemory = fmt.Errorf("pheap: out of persistent heap space")

// AllocatorStats counts the work an Allocator performed on its own paths.
// Only the owning mutator may read them; the alloc scaling experiment
// uses FlushedLines to compute per-mutator device critical paths.
type AllocatorStats struct {
	Allocs       int // objects allocated
	Reads        int // device reads its allocation calls issued
	Writes       int // device writes its allocation calls issued
	FlushedLines int // cache lines this allocator flushed
	Fences       int // fences this allocator issued
	Dispenses    int // regions fetched from the dispenser
}

// Allocator is the per-goroutine mutator context: an attached PLAB plus
// an attached recycled hole, the owner's accounting view of the device,
// its telemetry cell, and the reference-store barrier's two buffers
// (barrier.go). It is not safe for concurrent use — each mutator
// (goroutine) owns its Allocator, which is the point: the bump path
// touches only the allocator's own region and that region's line in the
// top table, and a reference store only state the owner writes. Obtain
// one with Heap.NewAllocator; release it with Release when the mutator
// retires. The heap keeps one ownerless twin for everything that runs
// outside any mutator (Heap.Ownerless).
type Allocator struct {
	// Access reaches the heap's objects through this allocator's own
	// accounting view of the device: the allocation path below and every
	// accessor the owning mutator calls on the allocator count in a cell
	// nobody else writes. NewAllocator creates the view, Release retires
	// it.
	Access

	// Attached PLAB: bump-allocates in [cur, end) of region. region < 0
	// means none attached.
	region   int
	cur, end int

	// Attached recycled hole (filler-covered space below a region top).
	holeCur, holeEnd int

	// klass-record address cache, so steady-state allocation skips the
	// segment maps entirely.
	kaddrs map[*klass.Klass]layout.Ref

	stats AllocatorStats
	// placing is set while an allocation call runs: the call's account
	// charges everything the view counted meanwhile to the allocation, a
	// barriered store in an init callback included, so the barrier does
	// not charge that store a second time.
	placing bool

	// cell is this mutator's telemetry counter block (nil when the heap
	// has no registry). Allocation counts are tallied here on the paths
	// that take them, device attribution for the alloc subsystem once per
	// call from what the view saw (account) — the same owner-counting
	// discipline as stats above, so the fast path gains no lock, fence, or
	// device op.
	cell *telemetry.Cell

	// The barrier's buffers: overwritten referents the concurrent marker
	// has yet to see, and remembered-set deltas the sink has yet to see.
	// The owner appends, a collector or publication point drains; bufMu
	// orders the two and is otherwise uncontended.
	bufMu  sync.Mutex
	satb   []layout.Ref
	deltas []RemsetDelta
}

// NewAllocator creates and registers a mutator-local allocator.
func (h *Heap) NewAllocator() *Allocator {
	return h.register(&Allocator{
		Access: Access{heap: h, view: h.dev.NewView()},
		cell:   h.tel.NewCell(),
	})
}

// register completes a and enters it in the list collectors walk.
func (h *Heap) register(a *Allocator) *Allocator {
	a.region, a.kaddrs = -1, make(map[*klass.Klass]layout.Ref)
	h.mu.Lock()
	h.allocators = append(h.allocators, a)
	h.mu.Unlock()
	return a
}

// Ownerless returns the heap's one context that belongs to nobody, for
// code that runs outside any mutator: the runtime's Runtime-level
// accessors, bulk image writes, ptx. It is safe for concurrent use where
// an owned Allocator is not — its accesses count in the device's shared
// counters (it is the heap's own Access), its reference stores in the
// telemetry registry's shared cell, and every one of them takes the same
// buffer mutex: the slow path. Its PLAB belongs to Heap.Alloc, which
// serializes on a lock; do not allocate through it directly.
func (h *Heap) Ownerless() *Allocator { return h.ownerless }

// Stats returns a snapshot of the allocator's own-path counters.
func (a *Allocator) Stats() AllocatorStats { return a.stats }

// TelemetryCell returns the allocator's counter cell (nil when telemetry
// is disabled). The owning mutator's other instrumented paths — the
// ref-store barrier, index contexts — share this cell so one goroutine
// owns exactly one cache-line-padded counter block.
func (a *Allocator) TelemetryCell() *telemetry.Cell { return a.cell }

// Alloc allocates an object of klass k. arrayLen is the element count for
// array klasses and ignored for instance klasses. The object body is
// zeroed; the header carries the current global timestamp. This is the
// landing point of the pnew/panewarray/pnewarray bytecodes.
func (a *Allocator) Alloc(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	return a.AllocInit(k, arrayLen, nil)
}

// AllocInit is Alloc with the object's initializing stores folded into
// its persist: init runs on the zeroed, headed, still unpublished object,
// then header and body are flushed together and fenced once, and only
// then does the object become parseable (see the ordering argument at
// the top of this file). When AllocInit returns the object is durable as
// init left it, so a caller about to link it needs no flush of its own.
// init must only store into the object it is handed (through this
// allocator); a nil init persists the header alone, which is Alloc.
func (a *Allocator) AllocInit(k *klass.Klass, arrayLen int, init func(layout.Ref)) (layout.Ref, error) {
	o, err := a.prepare(k, arrayLen)
	if err != nil {
		return 0, err
	}
	before := a.Ops()
	a.placing = true
	ref, err := a.place(o, init)
	a.placing = false
	a.account(before)
	return ref, err
}

// AllocInit2 allocates two instances — a of k1, then b of k2 — as one
// run where that is crash-safe: back to back on the bump path, init1(a)
// and init2(a, b) run on both before anything is flushed, one flush over
// the run, one fence, one region-top advance. b may therefore point at
// a: a is durable no later than b. With a recycled hole to fill (or a
// pair too large to share a PLAB) the same two objects go in one at a
// time — AllocInit(k1, init1), then AllocInit(k2, init2 bound to a) —
// because a torn run below a persisted top would not parse. On error a
// may already be allocated (unreferenced garbage for the next
// collection).
func (a *Allocator) AllocInit2(k1, k2 *klass.Klass, init1 func(a layout.Ref), init2 func(a, b layout.Ref)) (layout.Ref, layout.Ref, error) {
	o1, err := a.prepare(k1, 0)
	if err != nil {
		return 0, 0, err
	}
	o2, err := a.prepare(k2, 0)
	if err != nil {
		return 0, 0, err
	}
	before := a.Ops()
	a.placing = true
	r1, r2, err := a.place2(o1, o2, init1, init2)
	a.placing = false
	a.account(before)
	return r1, r2, err
}

// allocObj is one object of an allocation: its klass, the klass record's
// address for the header, and its resolved size.
type allocObj struct {
	k        *klass.Klass
	kaddr    layout.Ref
	arrayLen int
	size     int
}

// prepare validates one allocation request and resolves what its header
// needs, before any device work.
func (a *Allocator) prepare(k *klass.Klass, arrayLen int) (allocObj, error) {
	if k.IsArray() && arrayLen < 0 {
		return allocObj{}, fmt.Errorf("pheap: negative array length %d", arrayLen)
	}
	if a.heap.gcActive.Load() {
		return allocObj{}, fmt.Errorf("pheap: allocation while collection in progress")
	}
	kaddr, err := a.klassAddr(k)
	if err != nil {
		return allocObj{}, err
	}
	return allocObj{k: k, kaddr: kaddr, arrayLen: arrayLen, size: k.SizeOf(arrayLen)}, nil
}

// account closes an allocation call: whatever the view counted since
// before — every path's zeroing, headers, init stores, fillers, top
// publications, a PLAB retire or handoff plug on the way — is what the
// call cost, in AllocatorStats and, attributed to the alloc subsystem, in
// the telemetry cell. Derived, not tallied per site, so it cannot drift
// from what the paths actually issue.
func (a *Allocator) account(before nvm.Ops) {
	d := a.Ops().Sub(before)
	a.stats.Reads += int(d.Reads)
	a.stats.Writes += int(d.Writes)
	a.stats.FlushedLines += int(d.FlushedLines)
	a.stats.Fences += int(d.Fences)
	a.cell.Dev(nvm.SubAlloc, d.Reads, d.Writes, d.FlushedLines, d.Fences)
}

// place allocates one object on the path its size and the heap's state
// select: a humongous run, a recycled hole (holes first, like the seed:
// refill collector-reported gaps below the region tops before claiming
// fresh regions), or the PLAB bump.
func (a *Allocator) place(o allocObj, init func(layout.Ref)) (layout.Ref, error) {
	if o.size > HugeThreshold {
		return a.allocHumongous(o, init)
	}
	if a.holeFor(o.size) {
		return a.allocInHole(o, init), nil
	}
	ref, _, err := a.bump(o, allocObj{}, init, nil)
	return ref, err
}

// place2 allocates o1 then o2: as one bump run when no recycled hole is
// waiting for o1 and the two can share a PLAB, one at a time otherwise.
func (a *Allocator) place2(o1, o2 allocObj, init1 func(layout.Ref), init2 func(a, b layout.Ref)) (r1, r2 layout.Ref, err error) {
	if o1.size+o2.size <= HugeThreshold && !a.holeFor(o1.size) {
		return a.bump(o1, o2, init1, init2)
	}
	if r1, err = a.place(o1, init1); err != nil {
		return 0, 0, err
	}
	var bound func(layout.Ref)
	if init2 != nil {
		bound = func(r2 layout.Ref) { init2(r1, r2) }
	}
	r2, err = a.place(o2, bound)
	return r1, r2, err
}

// holeFor reports whether a recycled hole with room for size is attached,
// attaching the heap's next one that fits if not.
func (a *Allocator) holeFor(size int) bool {
	if a.holeCur != 0 && a.holeCur+size <= a.holeEnd {
		return true
	}
	if a.heap.holeCount.Load() > 0 {
		if hole, ok := a.heap.takeHole(size); ok {
			a.holeCur, a.holeEnd = hole.Lo, hole.Hi
			return true
		}
	}
	return false
}

// persistSpan is how much of a freshly written object has to be durable
// before it may become parseable: the whole object once init has stored
// into it, the header alone otherwise (the body is zeroes nobody can
// reach yet).
func persistSpan(o allocObj, inited bool) int {
	if inited {
		return o.size
	}
	return headerBytesOf(o.k)
}

// bump allocates o1 — and o2 right behind it, when o2.k is set — at the
// PLAB cursor: steps (a) and (b) of the ordering argument, once for the
// run.
func (a *Allocator) bump(o1, o2 allocObj, init1 func(layout.Ref), init2 func(a, b layout.Ref)) (r1, r2 layout.Ref, err error) {
	total := o1.size + o2.size
	if a.cur+total > a.end {
		if err := a.refill(total); err != nil {
			return 0, 0, err
		}
	}
	off := a.cur
	a.view.Zero(off, total)
	a.writeHeader(off, o1.kaddr, o1.k, o1.arrayLen)
	r1 = a.heap.AddrOf(off)
	if init1 != nil {
		init1(r1)
	}
	span := persistSpan(o1, init1 != nil)
	objs := uint64(1)
	if o2.k != nil {
		a.writeHeader(off+o1.size, o2.kaddr, o2.k, o2.arrayLen)
		r2 = a.heap.AddrOf(off + o1.size)
		if init2 != nil {
			init2(r1, r2)
		}
		span = o1.size + persistSpan(o2, init2 != nil)
		objs = 2
	}
	a.view.Flush(off, span)
	a.view.Fence()
	a.cur = off + total
	// Publication: the region's persisted top moves past the run only
	// after everything in it that must be durable is.
	a.persistRegionTop(a.region, a.cur)
	a.stats.Allocs += int(objs)
	a.cell.Add(telemetry.CtrAllocObjects, objs)
	a.cell.Add(telemetry.CtrAllocBytes, uint64(total))
	return r1, r2, nil
}

// allocInHole claims o.size bytes from the attached hole. The hole is
// filler-covered, line-aligned (see pgc's gap split), and lies below its
// region's persisted top, so the protocol is the seed's recycled-region
// protocol: first persist a new tail filler for the remainder, then the
// object (header, and body when init stored into it); a crash between
// the two leaves the old covering filler in charge. The region top is
// untouched. (As in the seed, the covering-filler handover is
// flush-ordered but not eviction-proof: an adversarial eviction between
// the body zeroing and the header fence can persist a half-rewritten
// filler header. Real x86 persists a line at store granularity, so the
// klass-word store itself is never torn.)
func (a *Allocator) allocInHole(o allocObj, init func(layout.Ref)) layout.Ref {
	off := a.holeCur
	a.holeCur += o.size
	if tail := a.holeEnd - a.holeCur; tail > 0 {
		a.fillGapRaw(a.holeCur, tail)
	}
	a.view.Zero(off, o.size)
	a.writeHeader(off, o.kaddr, o.k, o.arrayLen)
	ref := a.heap.AddrOf(off)
	if init != nil {
		init(ref)
	}
	a.view.Flush(off, persistSpan(o, init != nil))
	a.view.Fence()
	a.stats.Allocs++
	a.cell.Inc(telemetry.CtrAllocObjects)
	a.cell.Inc(telemetry.CtrHoleAllocs)
	a.cell.Add(telemetry.CtrAllocBytes, uint64(o.size))
	return ref
}

// refill retires the attached PLAB and fetches a region with at least
// size bytes of bump headroom from the dispenser.
func (a *Allocator) refill(size int) error {
	a.retirePLAB()
	r, cur, err := a.heap.dispense(size, a)
	if err != nil {
		return err
	}
	a.region = r
	a.cur = cur
	a.end = a.heap.geo.DataOff + (r+1)*layout.RegionSize
	a.stats.Dispenses++
	a.cell.Inc(telemetry.CtrPLABRefills)
	return nil
}

// retirePLAB seals the attached PLAB: the unused tail is plugged with a
// persisted filler and the region's top advanced to the region end, so
// the region is whole — it parses to its end and is never dispensed
// again until the collector reclaims it. Only allocation calls retire, so
// the device work lands in the caller's account.
func (a *Allocator) retirePLAB() {
	if a.region < 0 {
		return
	}
	if gap := a.end - a.cur; gap > 0 {
		a.fillGapRaw(a.cur, gap)
		a.persistRegionTop(a.region, a.end)
	}
	a.cell.Inc(telemetry.CtrPLABRetires)
	a.region = -1
	a.cur, a.end = 0, 0
}

// Release retires the allocator: the attached PLAB's headroom is handed
// back to the dispenser (its top is already persisted, so the next owner
// resumes bumping where this one stopped, line-padded at handoff), and
// the allocator is unregistered. A partially consumed hole is dropped,
// not handed on: its remainder starts mid-line, flush-adjacent to this
// mutator's last object, and stays filler-covered until the next
// collection re-reports it.
func (a *Allocator) Release() {
	h := a.heap
	// Barrier buffers first: overwritten referents the marker has not seen
	// move to the ownerless context, so a mutator retiring mid-mark loses
	// none, and pending deltas are published.
	satb, deltas := a.takeBuffers()
	if len(satb) > 0 {
		o := h.ownerless
		o.bufMu.Lock()
		o.satb = append(o.satb, satb...)
		o.bufMu.Unlock()
	}
	h.publishDeltas(deltas)
	// Fold the cell's counts into the registry's retired accumulator
	// before unregistering, so totals stay monotonic across mutator churn.
	h.tel.ReleaseCell(a.cell)
	a.cell = nil
	// Likewise the device view: its counts move to the shared counters.
	a.view.Release()
	h.mu.Lock()
	defer h.mu.Unlock()
	if a.region >= 0 && a.cur < a.end {
		h.freeRegionsInsert(a.region)
	}
	a.region, a.cur, a.end = -1, 0, 0
	a.holeCur, a.holeEnd = 0, 0
	for i, other := range h.allocators {
		if other == a {
			h.allocators = append(h.allocators[:i], h.allocators[i+1:]...)
			break
		}
	}
}

// dropBuffersForGC detaches the PLAB and hole without touching the device
// (the collector republishes all region state). Called under h.mu by
// PrepareForCollection with the world stopped.
func (a *Allocator) dropBuffersForGC() {
	a.region, a.cur, a.end = -1, 0, 0
	a.holeCur, a.holeEnd = 0, 0
}

// klassAddr resolves k's record address through the allocator-local
// cache, falling back to the heap's (locked) EnsureKlass on first use.
func (a *Allocator) klassAddr(k *klass.Klass) (layout.Ref, error) {
	if addr, ok := a.kaddrs[k]; ok {
		return addr, nil
	}
	addr, err := a.heap.EnsureKlass(k)
	if err != nil {
		return 0, err
	}
	a.kaddrs[k] = addr
	return addr, nil
}

// Alloc allocates through the heap's ownerless allocator — the drop-in
// equivalent of the seed's single allocation entry point, safe for
// concurrent use (serialized on a lock). Scalable callers attach their
// own Allocator via NewAllocator instead.
func (h *Heap) Alloc(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	return h.AllocInit(k, arrayLen, nil)
}

// AllocInit is Allocator.AllocInit through the ownerless allocator, under
// the same lock as Alloc; init stores through Heap.Ownerless.
func (h *Heap) AllocInit(k *klass.Klass, arrayLen int, init func(layout.Ref)) (layout.Ref, error) {
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	return h.ownerless.AllocInit(k, arrayLen, init)
}

// dataLimit is one past the last allocatable byte (the scratch region is
// reserved for the compactor).
func (h *Heap) dataLimit() int { return h.geo.ScratchOff }

// dispense hands out a region with at least size bytes of bump headroom:
// first from the free list (fully free regions, or partial regions whose
// previous owner released them — bumping resumes at their persisted top),
// then from the untouched frontier. Partial regions too small for the
// request are skipped and abandoned until the next collection, like the
// seed abandoned undersized holes.
//
// A partial region is handed out at the next cache-line boundary, the
// sliver plugged with a filler: the new owner must never write a line
// that may still hold (and be concurrently flushed with) the previous
// owner's last object. The one-time plug is the handoff cost; every
// later write by the new owner lands on its own lines.
//
// a is the requesting allocator: the handoff plug is device traffic
// issued on its goroutine and on its behalf, so it goes through a's
// view — and so into the account of the allocation call that asked —
// even though the heap lock is held.
func (h *Heap) dispense(size int, a *Allocator) (region, cur int, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gcActive.Load() {
		return 0, 0, fmt.Errorf("pheap: allocation while collection in progress")
	}
	for len(h.freeRegions) > 0 {
		r := h.freeRegions[0]
		h.freeRegions = h.freeRegions[1:]
		start := h.geo.DataOff + r*layout.RegionSize
		cur = start
		if t := int(h.regionTops[r].Load()); t > regionTopHumongousCont {
			cur = t
		}
		aligned := (cur + layout.LineSize - 1) &^ (layout.LineSize - 1)
		if start+layout.RegionSize-aligned < size {
			continue // abandoned until the next collection
		}
		if aligned > cur {
			a.fillGapRaw(cur, aligned-cur)
			a.persistRegionTop(r, aligned)
			cur = aligned
		}
		// Journal the handoff: one line write + flush, no fence — the
		// record rides the new owner's first object-persist fence.
		h.fr.Append(blackbox.EvPLABHandoff, uint64(r), uint64(cur), uint64(start+layout.RegionSize-cur))
		return r, cur, nil
	}
	if next := h.geo.DataOff + (h.frontier+1)*layout.RegionSize; next <= h.dataLimit() {
		r := h.frontier
		h.frontier++
		cur := h.geo.DataOff + r*layout.RegionSize
		h.fr.Append(blackbox.EvPLABHandoff, uint64(r), uint64(cur), uint64(layout.RegionSize))
		return r, cur, nil
	}
	return 0, 0, ErrOutOfMemory
}

// takeHole pops recycled holes until one fits size. Undersized holes are
// dropped (they stay filler-covered; the next collection re-reports
// whatever is still free), preserving the seed's abandon-on-miss
// behaviour.
func (h *Heap) takeHole(size int) (Hole, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.freeHoles) > 0 {
		hole := h.freeHoles[0]
		h.freeHoles = h.freeHoles[1:]
		h.holeCount.Add(-1)
		if hole.Hi-hole.Lo >= size {
			return hole, true
		}
	}
	return Hole{}, false
}

// freeRegionsInsert returns r to the dispenser's free list, keeping it
// sorted so allocation packs the heap downward. Caller holds h.mu.
func (h *Heap) freeRegionsInsert(r int) {
	i := 0
	for i < len(h.freeRegions) && h.freeRegions[i] < r {
		i++
	}
	h.freeRegions = append(h.freeRegions, 0)
	copy(h.freeRegions[i+1:], h.freeRegions[i:])
	h.freeRegions[i] = r
}

// allocHumongous claims a whole-region-aligned run at the dispenser
// frontier for an object larger than half a region, plugging the tail of
// its last region. The caller's PLAB is retired first so, for a single
// mutator, heap parse order remains allocation order (the seed aligned
// its global top the same way). Publication order: header and tail
// filler persist first, then the covered region-top entries — the head
// region's top at the run end, interior regions at the sentinel — with
// one flush+fence over the (contiguous) table span.
func (a *Allocator) allocHumongous(o allocObj, init func(layout.Ref)) (layout.Ref, error) {
	a.retirePLAB()
	h := a.heap
	h.mu.Lock()
	defer h.mu.Unlock()
	start := h.geo.DataOff + h.frontier*layout.RegionSize
	end := align(start+o.size, layout.RegionSize)
	if end > h.dataLimit() {
		return 0, ErrOutOfMemory
	}
	nRegions := (end - start) / layout.RegionSize
	h.frontier += nRegions

	dev := a.view
	dev.Zero(start, o.size)
	a.writeHeader(start, o.kaddr, o.k, o.arrayLen)
	ref := h.AddrOf(start)
	if init != nil {
		init(ref)
	}
	dev.Flush(start, persistSpan(o, init != nil))
	if end > start+o.size {
		a.fillGapRawNoFence(start+o.size, end-start-o.size)
	}
	dev.Fence()

	r0 := (start - h.geo.DataOff) / layout.RegionSize
	dev.WriteU64(h.RegionTopMetaOff(r0), uint64(end))
	dev.WriteU64(h.RegionTopMetaOff(r0)+8, regionTopSum(r0, uint64(end)))
	for r := r0 + 1; r < r0+nRegions; r++ {
		dev.WriteU64(h.RegionTopMetaOff(r), regionTopHumongousCont)
		dev.WriteU64(h.RegionTopMetaOff(r)+8, regionTopSum(r, regionTopHumongousCont))
	}
	dev.Flush(h.RegionTopMetaOff(r0), nRegions*layout.RegionTopStride)
	dev.Fence()
	h.regionTops[r0].Store(int64(end))
	for r := r0 + 1; r < r0+nRegions; r++ {
		h.regionTops[r].Store(regionTopHumongousCont)
	}
	a.stats.Allocs++
	a.cell.Inc(telemetry.CtrAllocObjects)
	a.cell.Inc(telemetry.CtrHumongous)
	a.cell.Add(telemetry.CtrAllocBytes, uint64(o.size))
	return ref, nil
}

func headerBytesOf(k *klass.Klass) int {
	if k.IsArray() {
		return layout.ArrayHdrBytes
	}
	return layout.HeaderBytes
}

func (x Access) writeHeader(off int, kaddr layout.Ref, k *klass.Klass, arrayLen int) {
	x.view.WriteU64(off+layout.MarkWordOff, layout.MarkWord(x.heap.globalTS.Load(), 0))
	x.view.WriteU64(off+layout.KlassWordOff, uint64(kaddr))
	if k.IsArray() {
		x.view.WriteU64(off+layout.ArrayLenOff, uint64(arrayLen))
	}
}

// fillGapRaw writes and persists a filler object covering exactly
// [off, off+n), through x's view (an allocator plugging its own PLAB, or
// the heap for the collector). It is lock-free: the filler klass addresses
// are resolved once at create/load, and the caller owns the covered bytes. n must be
// 16-aligned; a 16-byte gap takes the 2-word filler, larger gaps a
// byte-array filler.
func (x Access) fillGapRaw(off, n int) {
	x.fillGapRawNoFence(off, n)
	x.view.Fence()
}

func (x Access) fillGapRawNoFence(off, n int) {
	h := x.heap
	if n == 0 {
		return
	}
	if n < layout.MinObjectBytes || n%layout.ObjAlign != 0 {
		panic(fmt.Sprintf("pheap: unfillable gap of %d bytes", n))
	}
	if h.fillerAddr == 0 || h.fillerArrAddr == 0 {
		panic("pheap: filler klasses not resolved")
	}
	if n == layout.HeaderBytes {
		x.writeHeader(off, h.fillerAddr, h.fillerK, 0)
		x.view.Flush(off, layout.HeaderBytes)
		return
	}
	// Choose the largest length whose aligned size equals n exactly.
	elems := n - layout.ArrayHdrBytes
	if layout.ArrayBytes(layout.FTByte, elems) != n {
		elems -= layout.ArrayBytes(layout.FTByte, elems) - n
	}
	x.writeHeader(off, h.fillerArrAddr, h.fillerArrK, elems)
	x.view.Flush(off, layout.ArrayHdrBytes)
}

// IsFiller reports whether k is one of the gap-filler klasses.
func IsFiller(k *klass.Klass) bool {
	return k.Name == klass.FillerName || k.Name == klass.FillerArrayName
}

// WriteFiller writes a persisted filler object covering exactly
// [off, off+n). The garbage collector uses it to plug evacuated holes so
// the compacted heap still parses; the caller must own the covered bytes
// (the world is stopped during collection).
func (h *Heap) WriteFiller(off, n int) {
	h.fillGapRaw(off, n)
}
