package pheap

import (
	"fmt"
	"sync/atomic"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/telemetry"
	"espresso/internal/telemetry/blackbox"
)

// Crash-consistent allocation (paper §4.1), scaled out with persistent
// region-local allocation buffers (PLABs), at no persist of its own for a
// plain allocation. The paper's three phases are
//
//	(1) fetch the Klass pointer from the constant pool,
//	(2) allocate memory and update top,
//	(3) initialize the object header,
//
// with the persisted replica of top and the klass-pointer store ordered
// by flush+fence: two persists per object. The paper bumps a single
// persisted top under one lock; here a region dispenser hands each mutator
// a whole GC region under a short lock and the mutator bump-allocates
// inside its PLAB lock-free. Where the paper — and this package through
// format version 5 — persisted the top after every object, here the top is
// a lower bound that moves only when somebody other than the owner has to
// read it, and objects are validated at recovery instead (the shape
// "Efficient Lock-Free Durable Sets" gives a set member). And where the
// paper persists the header inside pnew, here a plain allocation leaves
// it to the first thing that needs it durable: the paper's own programming
// model (§3.5, Figure 12) flushes an object before publishing it, so a
// header persisted by pnew would be written back twice.
//
// A bump allocation zeroes the object's body and writes its header — its
// mark word carries the heap's allocation epoch, the global GC timestamp.
// AllocInit then runs the caller's initializing stores on the still
// unacknowledged object and persists header and body together: one flush
// over the object, one fence. Alloc (no init) flushes and fences nothing:
// the header becomes the region's one deferred header — a per-region word
// (regionLine.deferred) holding its offset — and is settled later. Either
// way the volatile top (regionLine.top, what heap walks, the marker and
// the space accounting read) then moves past the object and the call
// returns.
//
// To settle a deferred header is to flush its lines, fence once, and clear
// the word (unless it has moved on). It happens at the first of:
//
//   - a flush whose lines cover the header, by any context: FlushRange and
//     FlushBatch clear the word after their own fence, at no line of their
//     own — the saving, for a program that flushes what it creates;
//   - a store that names the object: StoreRef (so core's field and array
//     stores, and ptx's), core's stores across heaps (in the value's
//     heap), SetRoot, pindex's Put of a caller's value, and ptx's undo
//     record of one of the object's words (recovery writes through it) —
//     each calls Settle before the word can be durable, one atomic load
//     when there is nothing to settle;
//   - the allocator's next allocation, which settles its PLAB's header
//     before anything else, and Release and persistOpenTops, which do the
//     same for a PLAB about to be handed on or to have its top persisted:
//     PrepareForCollection at a collection's pause (the allocator
//     leaves the pause without a PLAB, so nothing else would),
//     PersistTops and Close. No region top is ever persisted above a
//     header that is not durable.
//
// So a PLAB holds at most one deferred header — its owner is the only
// allocator in it, and settles the previous header before writing the
// next — and a PLAB's headers become durable in allocation order. The one
// exception to deferring is a PLAB's first object: the dispense left the
// region's opened mark (and the handoff record) flushed without a fence,
// and they ride that object's own persist, as they always have.
//
// Why a settle by another thread is sound (Px86, "Taming x86-TSO
// Persistency": a flush writes back the line as the issuing thread sees
// it, and a fence waits for the issuing thread's flushes): the settler
// loads the word before it flushes, and a load that sees the owner's word
// store sees the header stores the owner made before it (TSO keeps one
// thread's stores in order), so the flush writes back a line that holds
// the header, and the settler's fence completes it before its CAS clears
// the word — before, in Settle's case, its own naming store. A covering
// flush loads the word of the region its range starts in before flushing,
// for the same reason, and clears only a header whose every line it wrote
// back.
// And why the owner may skip a header it finds cleared: the clear follows
// the settler's fence, so a load that sees it follows the header's
// persist, and the owner's next header, written after that load, cannot
// be durable first.
//
// One recovery rule (Heap.recoverFrontier): Load parses each half-open
// region forward from its persisted top while headers validate — epoch,
// klass word, size — and stops at the first that does not. What makes the
// rule sound:
//
//   - Every object a durable word names parses, and headers become
//     durable in allocation order within a PLAB: a header is durable
//     before any durable word names it — a reference slot, a root, an undo
//     record that recovery writes through — and before the next header in
//     its PLAB can be, so the parse walks real headers from the persisted
//     top to every named object. What it may stop short of is a trailing
//     object nothing names — its allocation returned, but its header was
//     never settled — which nothing can reach, and whose plug no recovery
//     step writes into.
//   - Nothing older passes for an object of this epoch. A region's bytes
//     above its persisted top were left by earlier epochs — a region is
//     dispensed again only after a collection, every collection's finish
//     publishes a fresh epoch (pgc.finish: the timestamp the compactor
//     stamped processed sources with is retired in the same redo batch
//     that ends the cycle, so the allocation epoch is never a collection's
//     stamp) — and the epoch word carries a checksum.
//   - What the parse may accept beyond the last named object is a torn
//     one: flushes of different lines before one fence persist in any
//     order, so a crash inside a persist can leave the header line in and
//     a later line out. Nothing durable names it, its body is never
//     interpreted, and the next collection takes it — as harmless above
//     the frontier as it was above the top.
//
// The persisted top word is written where the owner stops being the only
// reader: once at dispense, as an "opened, empty" mark (top == region
// start: the line rides the first object's fence, keeps the dispenser
// frontier derivable from the table, and is why Load never probes an
// untouched region); at PLAB retire, behind the tail filler; at Release,
// for the next owner; at PrepareForCollection, before a cycle is stamped
// (from then on recovery reads the table and the compactor owns the
// timestamp, so no parse runs on a mid-collection image); and at
// PersistTops, the orderly shutdown, after which a reload parses nothing.
//
// AllocInit folds a second guarantee into its persist for free: an object
// a caller goes on to link (pindex publishes a node with one CAS) is whole
// in the image before any durable word can name it, without a flush of
// its own.
//
// AllocRun puts several small objects back to back under one persist: a
// single flush over all of them, a single fence. A crash inside it can
// leave any subset of the run's lines in the image, which is harmless
// exactly where the rule above applies: above the region's persisted top.
// Below one — in a recycled hole — it is not: the first object's line
// could persist without the second's, and the region would parse from a
// whole first object into the stale bytes behind it. So the run is a
// bump-path form only. While a recycled hole is attached (or the heap has
// one to attach) the objects go in one at a time, each through the hole
// protocol below (covering filler first, then the object, its init folded
// into its own persist), each complete before the next exists. Hole and
// humongous allocations, like AllocInit and AllocRun, never defer.
//
// Tops of different regions live on different cache lines
// (layout.RegionTopStride), and so do their deferred-header words, so
// concurrent mutators never contend on a shared persisted word, and the
// bump path writes no line another mutator's bump path writes; a deferred
// word is loaded by any context that flushes or names an object of its
// region, and cleared by the one that settles its header.
//
// Region-top table encoding (device offsets):
//
//	0                          never used since the last GC reset
//	1 (regionTopHumongousCont) interior region of a humongous run
//	[start, start+RegionSize]  region parses at least up to this offset
//	                           (start itself: opened, nothing known yet)
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
// and its telemetry cell. It is not safe for concurrent use — each
// mutator (goroutine) owns its Allocator, which is the point: the bump
// path touches only the allocator's own region, and a reference store
// only state the owner writes, unless it stores a volatile reference
// (barrier.go). Obtain one with Heap.NewAllocator; release it with
// Release when the mutator retires. The heap keeps one ownerless twin for
// everything that runs outside any mutator (Heap.Ownerless).
//
// The pads keep the words the owner touches on every access and
// allocation off the lines of the objects the Go allocator places
// beside it, typically other mutators' allocators.
type Allocator struct {
	_ [8]uint64 // cache-line pad

	// Access reaches the heap's objects through this allocator's own
	// accounting view of the device: the allocation path below and every
	// accessor the owning mutator calls on the allocator count in a cell
	// nobody else writes. NewAllocator creates the view, Release retires
	// it.
	Access

	// Attached PLAB: bump-allocates in [cur, end) of region. region < 0
	// means none attached. durableTop is the region's persisted top word:
	// it trails cur until somebody else has to read it (see the protocol
	// at the top of this file).
	region     int
	cur, end   int
	durableTop int
	// opened is set from a refill until the PLAB's first bump allocation:
	// the dispense left lines flushed without a fence (the opened mark, the
	// handoff record) that ride that allocation's fence, so it is persisted
	// at once, never deferred.
	opened bool

	// Attached recycled hole (filler-covered space below a region top).
	holeCur, holeEnd int

	// klass-record address cache, so steady-state allocation skips the
	// segment maps entirely.
	kaddrs map[*klass.Klass]layout.Ref
	// run is AllocRun's scratch: the prepared objects of the call.
	run []allocObj

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

	_ [8]uint64 // cache-line pad
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
// telemetry registry's shared cell: the slow path. Its PLAB belongs to
// Heap.Alloc, which serializes on a lock; do not allocate through it
// directly.
func (h *Heap) Ownerless() *Allocator { return h.ownerless }

// Stats returns a snapshot of the allocator's own-path counters.
func (a *Allocator) Stats() AllocatorStats { return a.stats }

// Headroom is how many bytes the attached PLAB can still bump-allocate
// without a refill: zero with none attached. A caller that sizes its runs
// by it keeps AllocRun from retiring the PLAB early.
func (a *Allocator) Headroom() int { return a.end - a.cur }

// TelemetryCell returns the allocator's counter cell (nil when telemetry
// is disabled). The owning mutator's other instrumented paths — the
// ref-store barrier, index contexts — share this cell so one goroutine
// owns exactly one cache-line-padded counter block.
func (a *Allocator) TelemetryCell() *telemetry.Cell { return a.cell }

// Alloc allocates an object of klass k. arrayLen is the element count for
// array klasses and ignored for instance klasses. The object body is
// zeroed; the header carries the current global timestamp. This is the
// landing point of the pnew/panewarray/pnewarray bytecodes. On the bump
// path it flushes and fences nothing: the header is the region's deferred
// one until something settles it (see the protocol at the top of this
// file), so an object nothing names or flushes may be missing after a
// crash.
func (a *Allocator) Alloc(k *klass.Klass, arrayLen int) (layout.Ref, error) {
	return a.AllocInit(k, arrayLen, nil)
}

// AllocInit is Alloc with the object's initializing stores folded into
// its persist: init runs on the zeroed, headed, still unacknowledged
// object, then header and body are flushed together and fenced once (see
// the protocol at the top of this file). When AllocInit returns the object
// is durable as init left it, so a caller about to link it needs no flush
// of its own. init must only store into the object it is handed (through
// this allocator). A nil init is Alloc: on the bump path the header is
// left deferred, settled by the object's first covering flush or naming
// store, or by this allocator's next allocation.
func (a *Allocator) AllocInit(k *klass.Klass, arrayLen int, init func(layout.Ref)) (layout.Ref, error) {
	o, err := a.prepare(k, arrayLen)
	if err != nil {
		return 0, err
	}
	before := a.Ops()
	a.placing = true
	a.settleOwn()
	ref, err := a.place(o, init)
	a.placing = false
	a.account(before)
	return ref, err
}

// RunObj is one object of an AllocRun: its klass and, for an array klass,
// its element count.
type RunObj struct {
	K        *klass.Klass
	ArrayLen int
}

// AllocRun allocates objs in order as one run where that is crash-safe:
// back to back on the bump path, every header written and init(i) run on
// every object before anything is flushed, then one flush over the run
// and one fence. refs[i] receives object i's address before init(i) runs;
// init(i) may store into object i only, and may store refs[j], j < i,
// there: an earlier object is durable no later than a later one. With a
// recycled hole to fill (or a run too large to share a PLAB) the same
// objects go in one at a time, in order, each persisted with its init
// before the next exists — a torn run below a persisted top would not
// parse. A nil init persists headers only. On error a prefix of the run
// may already be allocated (unreferenced garbage for the next collection).
func (a *Allocator) AllocRun(objs []RunObj, refs []layout.Ref, init func(i int)) error {
	run, total := a.run[:0], 0
	for _, obj := range objs {
		o, err := a.prepare(obj.K, obj.ArrayLen)
		if err != nil {
			return err
		}
		run, total = append(run, o), total+o.size
	}
	a.run = run
	before := a.Ops()
	a.placing = true
	a.settleOwn()
	err := a.placeRun(run, total, refs, init)
	a.placing = false
	a.account(before)
	return err
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
	off, err := a.reserve(o.size)
	if err != nil {
		return 0, err
	}
	ref := a.head(off, o)
	if init == nil && !a.opened {
		a.heap.regions[a.region].deferred.Store(deferredWord(off, o.k))
		a.tally(telemetry.CtrHeadersDeferred, 1)
	} else {
		if init != nil {
			init(ref)
		}
		a.view.Persist(off, persistSpan(o, init != nil))
	}
	a.advance(off+o.size, o.size, 1)
	return ref, nil
}

// placeRun allocates run in order: as one bump run when no recycled hole
// is waiting for its first object and it can share a PLAB, one object at a
// time otherwise.
func (a *Allocator) placeRun(run []allocObj, total int, refs []layout.Ref, init func(i int)) error {
	if len(run) == 0 {
		return nil
	}
	if total > HugeThreshold || a.holeFor(run[0].size) {
		for i, o := range run {
			var one func(layout.Ref)
			if init != nil {
				one = func(ref layout.Ref) { refs[i] = ref; init(i) }
			}
			ref, err := a.place(o, one)
			if err != nil {
				return err
			}
			refs[i] = ref
		}
		return nil
	}
	off, err := a.reserve(total)
	if err != nil {
		return err
	}
	at := off
	for i, o := range run {
		refs[i] = a.head(at, o)
		if init != nil {
			init(i)
		}
		at += o.size
	}
	last := run[len(run)-1]
	a.view.Persist(off, total-last.size+persistSpan(last, init != nil))
	a.advance(off+total, total, len(run))
	return nil
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

// reserve makes room for size bytes at the PLAB cursor — refilling the
// PLAB when they do not fit — and zeroes them. The bytes are the owner's
// alone until publish.
func (a *Allocator) reserve(size int) (off int, err error) {
	if a.cur+size > a.end {
		if err := a.refill(size); err != nil {
			return 0, err
		}
	}
	a.view.Zero(a.cur, size)
	return a.cur, nil
}

// head writes o's header at off inside reserved space.
func (a *Allocator) head(off int, o allocObj) layout.Ref {
	a.writeHeader(off, o.kaddr, o.k, o.arrayLen)
	return a.heap.AddrOf(off)
}

// advance ends a bump allocation of objs objects, size bytes in all: the
// PLAB cursor and the volatile top move to cur. The region's persisted top
// stays where it is.
func (a *Allocator) advance(cur, size, objs int) {
	a.cur, a.opened = cur, false
	a.heap.regions[a.region].top.Store(int64(cur))
	a.stats.Allocs += objs
	a.cell.Add(telemetry.CtrAllocObjects, uint64(objs))
	a.cell.Add(telemetry.CtrAllocBytes, uint64(size))
}

// regionLine is one region's volatile state (Heap.regions), alone on its
// cache line: the two words the region's owner stores on every bump
// allocation, and no other region's.
type regionLine struct {
	// top mirrors the region's entry of the persisted region-top table
	// ("Region-top table encoding" above), and may lie above it. Heap
	// walks, the marker and the space accounting load it while the owner
	// advances it.
	top atomic.Int64
	// deferred is the region's one deferred header (see the protocol at
	// the top of this file): the last bump allocation of the region's
	// PLAB, written and not yet settled. Every context that flushes an
	// object of the region or stores a reference to one loads it.
	deferred atomic.Uint64
	_        [layout.LineSize - 16]byte
}

// deferredWord encodes the header at off of an object of klass k: the
// offset, with bit 3 set for an array's longer header (objects are
// 16-aligned, so the low four bits are free). Zero means none.
func deferredWord(off int, k *klass.Klass) uint64 {
	if k.IsArray() {
		return uint64(off) | 8
	}
	return uint64(off)
}

// headerSpan decodes a deferred word: the header's offset and length.
func headerSpan(w uint64) (off, n int) {
	return int(w &^ 15), layout.HeaderBytes + int(w&8)
}

// coveredHeader is a deferred word w of region r as a flush found it.
type coveredHeader struct {
	r int
	w uint64
}

// settle makes region r's deferred header w durable through x's view —
// its lines flushed, one fence — and then clears the word, unless the
// owner has moved on to a later header (or another context has settled
// this one) in the meantime. It returns the lines flushed.
func (x Access) settle(r int, w uint64) uint64 {
	off, n := headerSpan(w)
	x.view.Persist(off, n)
	x.heap.regions[r].deferred.CompareAndSwap(w, 0)
	return uint64(nvm.LineRange(off, n).N / layout.LineSize)
}

// settleOwn settles the header this allocator's PLAB last deferred, if
// nothing has settled it yet: every allocation does this first, so a PLAB
// never holds more than one deferred header and its headers become
// durable in allocation order.
func (a *Allocator) settleOwn() uint64 {
	if a.region >= 0 {
		if w := a.heap.regions[a.region].deferred.Load(); w != 0 {
			return a.settle(a.region, w)
		}
	}
	return 0
}

// Settle makes ref's header durable if ref is its region's deferred
// header — what a store that names ref owes it first: the flush, the fence
// and the clear of settle when it is, one atomic load when it is not (a
// NullRef, or an object of another heap, costs nothing). StoreRef calls it
// for the value it stores; so must every other writer of a durable word
// that names an object (pindex's Put, Heap.SetRoot, core's stores across
// heaps, ptx's undo records). The settle is the allocation's persist wherever it happens, so
// it is charged to the alloc subsystem and to AllocatorStats.
func (a *Allocator) Settle(ref layout.Ref) {
	off := a.heap.OffOf(layout.UntagRef(ref))
	if r, w := a.heap.deferredAt(off); w != 0 {
		if hoff, _ := headerSpan(w); hoff == off {
			a.charge(a.settle(r, w))
		}
	}
}

// deferredAt loads the deferred word of the region holding device offset
// off: 0 when there is none, or off lies outside the data area.
func (h *Heap) deferredAt(off int) (r int, w uint64) {
	if r = (off - h.geo.DataOff) / layout.RegionSize; off >= h.geo.DataOff && r < len(h.regions) {
		return r, h.regions[r].deferred.Load()
	}
	return 0, 0
}

// charge books a settle of lines to the alloc subsystem (0 lines: there
// was nothing to settle). The ownerless context is shared, so its settles
// go to the registry's shared cell and skip AllocatorStats; inside an
// owner's allocation call (an init's barriered store) the call's account
// already sees the settle.
func (a *Allocator) charge(lines uint64) {
	switch {
	case lines == 0:
	case a == a.heap.ownerless:
		a.heap.tel.Shared().AtomicDev(nvm.SubAlloc, 0, 0, lines, 1)
	case a.placing:
	default:
		a.stats.FlushedLines += int(lines)
		a.stats.Fences++
		a.cell.Dev(nvm.SubAlloc, 0, 0, lines, 1)
	}
}

// tally counts n of ctr in the allocator's own cell, or — for a context
// without one — atomically in the registry's shared cell.
func (a *Allocator) tally(ctr telemetry.Counter, n uint64) {
	if a.cell != nil {
		a.cell.Add(ctr, n)
	} else {
		a.heap.tel.Shared().AtomicAdd(ctr, n)
	}
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
		a.view.Persist(a.holeCur, a.writeFiller(a.holeCur, tail))
	}
	a.view.Zero(off, o.size)
	a.writeHeader(off, o.kaddr, o.k, o.arrayLen)
	ref := a.heap.AddrOf(off)
	if init != nil {
		init(ref)
	}
	a.view.Persist(off, persistSpan(o, init != nil))
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
	a.region, a.opened = r, true
	a.cur, a.durableTop = cur, cur
	a.end = a.heap.geo.DataOff + (r+1)*layout.RegionSize
	a.stats.Dispenses++
	a.cell.Inc(telemetry.CtrPLABRefills)
	return nil
}

// retirePLAB seals the attached PLAB: the unused tail is plugged with a
// persisted filler and the region's top advanced to the region end — a
// full PLAB's top, still where dispense left it, included — so the region
// is whole: it parses to its end and is never dispensed again until the
// collector reclaims it. Only allocation calls retire — after settling
// their PLAB's deferred header, so every header below the new top is
// durable — and the device work lands in the caller's account.
func (a *Allocator) retirePLAB() {
	if a.region < 0 {
		return
	}
	if gap := a.end - a.cur; gap > 0 {
		a.view.Persist(a.cur, a.writeFiller(a.cur, gap))
	}
	if a.durableTop != a.end {
		a.persistRegionTop(a.region, a.end)
	}
	a.cell.Inc(telemetry.CtrPLABRetires)
	a.region = -1
	a.cur, a.end = 0, 0
}

// Release retires the allocator: the attached PLAB's deferred header is
// settled, its top persisted and its headroom handed back to the
// dispenser (the next owner resumes
// bumping where this one stopped, line-padded at handoff), and the
// allocator is unregistered. A partially consumed hole is dropped, not
// handed on: its remainder starts mid-line, flush-adjacent to this
// mutator's last object, and stays filler-covered until the next
// collection re-reports it.
func (a *Allocator) Release() {
	h := a.heap
	// The PLAB and the registry entry go under the heap lock, which a
	// collector preparing a cycle holds while it reads both.
	h.mu.Lock()
	if a.region >= 0 {
		a.charge(a.settleOwn())
		if a.cur != a.durableTop {
			a.persistRegionTop(a.region, a.cur)
		}
		if a.cur < a.end {
			h.freeRegionsInsert(a.region)
		}
	}
	a.region, a.cur, a.end = -1, 0, 0
	a.holeCur, a.holeEnd = 0, 0
	for i, other := range h.allocators {
		if other == a {
			h.allocators = append(h.allocators[:i], h.allocators[i+1:]...)
			break
		}
	}
	h.mu.Unlock()
	// Fold the cell's counts into the registry's retired accumulator, so
	// totals stay monotonic across mutator churn; likewise the device view:
	// its counts move to the shared counters.
	h.tel.ReleaseCell(a.cell)
	a.cell = nil
	a.view.Release()
}

// dropBuffersForGC detaches the PLAB and hole (the collector republishes
// all region state). Called under h.mu by PrepareForCollection, which has
// just persisted the PLAB's top, with the world stopped.
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
// previous owner released them — bumping resumes at their top, which
// Release persisted), then from the untouched frontier. A region whose
// table line still reads untouched gets the "opened, empty" mark: its top
// word is written at the region start and flushed without a fence — the
// line rides the new owner's first object persist, which is therefore
// never deferred — so the table says which regions Load has to parse.
// Partial regions too small for the request are skipped and abandoned
// until the next collection, like the seed abandoned undersized holes.
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
		if cur = int(h.regions[r].top.Load()); cur == 0 {
			cur = start // a whole region: it fits any PLAB request
			a.view.Flush(a.writeRegionTop(r, cur))
		}
		aligned := (cur + layout.LineSize - 1) &^ (layout.LineSize - 1)
		if start+layout.RegionSize-aligned < size {
			continue // abandoned until the next collection
		}
		if aligned > cur {
			a.view.Persist(cur, a.writeFiller(cur, aligned-cur))
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
		a.view.Flush(a.writeRegionTop(r, cur))
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
	dev.Persist(start+o.size, a.writeFiller(start+o.size, end-start-o.size))

	r0 := (start - h.geo.DataOff) / layout.RegionSize
	dev.WriteU64(h.RegionTopMetaOff(r0), uint64(end))
	dev.WriteU64(h.RegionTopMetaOff(r0)+8, regionTopSum(r0, uint64(end)))
	for r := r0 + 1; r < r0+nRegions; r++ {
		dev.WriteU64(h.RegionTopMetaOff(r), regionTopHumongousCont)
		dev.WriteU64(h.RegionTopMetaOff(r)+8, regionTopSum(r, regionTopHumongousCont))
	}
	dev.Persist(h.RegionTopMetaOff(r0), nRegions*layout.RegionTopStride)
	h.regions[r0].top.Store(int64(end))
	for r := r0 + 1; r < r0+nRegions; r++ {
		h.regions[r].top.Store(regionTopHumongousCont)
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

// writeFiller writes a filler header covering exactly [off, off+n),
// through x's view (an allocator plugging its own PLAB, or the heap for
// the collector), and returns the length to flush to persist it: the
// header's (a filler's body is never read), 0 for an empty gap. It is
// lock-free: the filler klass addresses are resolved once at create/load,
// and the caller owns the covered bytes. n must be 16-aligned; a 16-byte
// gap takes the 2-word filler, larger gaps a byte-array filler.
func (x Access) writeFiller(off, n int) int {
	h := x.heap
	if n == 0 {
		return 0
	}
	if n < layout.MinObjectBytes || n%layout.ObjAlign != 0 {
		panic(fmt.Sprintf("pheap: unfillable gap of %d bytes", n))
	}
	if h.fillerAddr == 0 || h.fillerArrAddr == 0 {
		panic("pheap: filler klasses not resolved")
	}
	if n == layout.HeaderBytes {
		x.writeHeader(off, h.fillerAddr, h.fillerK, 0)
		return layout.HeaderBytes
	}
	// Choose the largest length whose aligned size equals n exactly.
	elems := n - layout.ArrayHdrBytes
	if layout.ArrayBytes(layout.FTByte, elems) != n {
		elems -= layout.ArrayBytes(layout.FTByte, elems) - n
	}
	x.writeHeader(off, h.fillerArrAddr, h.fillerArrK, elems)
	return layout.ArrayHdrBytes
}

// IsFiller reports whether k is one of the gap-filler klasses.
func IsFiller(k *klass.Klass) bool {
	return k.Name == klass.FillerName || k.Name == klass.FillerArrayName
}

// WriteFiller writes a filler object covering exactly [off, off+n) and
// returns the lines that persist it, unflushed: the garbage collector
// plugs every gap of a compacted heap this way so that it parses, and
// persists all of them with one batch and one fence. The caller must own
// the covered bytes (the world is stopped during collection); n > 0.
func (h *Heap) WriteFiller(off, n int) nvm.Range {
	return nvm.LineRange(off, h.writeFiller(off, n))
}
