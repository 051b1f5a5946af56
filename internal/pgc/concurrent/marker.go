// Package concurrent implements the snapshot-at-the-beginning (SATB)
// marking engine of the concurrent persistent collector.
//
// The marker is handed a snapshot of the per-region top table taken at a
// brief initial handshake (with the world stopped) and traces the object
// graph strictly below those snapshot tops while mutators keep running:
// bump allocation only ever advances tops, so everything the mutators
// create after the snapshot lies above it and is implicitly live
// (allocate-black). Reachability can only be hidden from the marker by
// overwriting a reference slot; the pre-write half of pheap's
// reference-store barrier records every overwritten referent in the
// storing context's buffer, and the marker drains those buffers as extra
// gray roots — first concurrently, then once more at the final remark
// with the world stopped again.
//
// Tracing is parallel: N workers each own a work-stealing deque, seeded
// from the root set by the region (under the snapshot top table) each
// root points into. A worker scans objects popped from its own tail,
// steals batches from other deques when it runs dry, and — before going
// idle — drains its shard of the barrier buffers (pre-write records to
// trace, remembered-set deltas to publish) so barrier traffic is consumed
// concurrently with tracing by the same pool. Termination is a steal-failure + buffer-quiescence barrier: a
// worker retires only after its own deque is empty, a steal sweep over
// every other deque failed, and its SATB shard drained nothing (or the
// drain budget ran out); the cycle is over when every worker has retired
// at once. That is sound because workers push only to their own deques —
// a deque can be non-empty only while its owner is active, so "all
// workers idle" implies "all deques empty" implies no marking work can
// ever appear again except via mutator barriers, which the final remark
// collects.
//
// Race discipline: the marker reads reference slots with single atomic
// machine loads (nvm.ReadU64Atomic) and mutators store them with single
// atomic machine stores, so a concurrent load never tears; object
// headers below the snapshot are immutable while marking runs, so plain
// reads suffice there. The mark bitmap is shared between workers and
// written with atomic fetch-OR word operations; a worker claims an
// object by flipping its begin bit from clear to set, so every object is
// scanned (and counted) by exactly one worker no matter how many deques
// it was pushed onto.
//
// The same engine runs the stop-the-world mark phase: with the snapshot
// taken at the current tops, no mutators running, and workers=1, tracing
// degenerates to the seed's mark loop, which is how pgc shares one
// tracer between both collectors.
package concurrent

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/pheap"
)

// Marker is one collection cycle's tracing state. The exported methods
// are driven by one goroutine (the collector's); each call fans the work
// out over the configured worker pool internally and joins it before
// returning.
type Marker struct {
	h       *pheap.Heap
	snap    []int // region-top snapshot (raw table encoding)
	dataOff int
	workers int

	ws []*workerState

	// idle counts workers currently parked in the termination barrier;
	// a trace call completes when it reaches the pool size. Reset per
	// trace call.
	idle atomic.Int64

	// satbConsumed tallies SATB records delivered during the current
	// trace call (DrainOnce's return value). Reset per trace call.
	satbConsumed atomic.Int64

	// maxOut[c] is the highest device offset any traced object starting
	// in card c (pheap.SATBCardBytes granularity) points at (NoOutgoing
	// if none, ScanAlways if unknown — allocate-black objects are never
	// scanned). The compactor uses it to skip pause-time reference fixing
	// for cards that provably cannot reference a moved object; the
	// write-barrier's dirty cards veto the skip for cards stored to after
	// their objects were traced. Workers race on it with CAS-max, which
	// commutes: the final table is order-independent.
	maxOut []int64

	// Errors and panics from worker goroutines, forwarded to the
	// coordinator: the first error aborts the trace (failed makes every
	// worker bail out promptly), the first panic is re-raised on the
	// calling goroutine so device crash-injection hooks behave exactly
	// as they do single-threaded.
	failed   atomic.Bool
	errMu    sync.Mutex
	err      error
	panicVal any

	// Serial allocate-black sweep counters (FinalRemark, world stopped).
	sweptObjects, sweptBytes int
}

// workerState is one worker's private half: its deque, its accounting
// view of the device, its bitmap view through that device, and its
// share of the live counts. Only its owning goroutine touches the
// counts and budgets; the deque has its own lock.
type workerState struct {
	id          int
	dq          *deque
	wd          *nvm.View
	bm          *pheap.Bitmap
	liveObjects int
	liveBytes   int
	drainBudget int
	scanTick    int // scans since the last voluntary yield
	// busy is this worker's wall time inside workerLoop across every
	// trace call of the cycle; parked is the portion spent in the idle
	// barrier. busy − parked is the worker's productive time — the skew
	// signal Result.MarkWorkerTimes reports (every worker's total wall
	// time is roughly equal by construction: all retire together).
	busy, parked time.Duration
}

// yieldEvery is how many scans a worker performs between voluntary
// runtime.Gosched calls. Busy workers yielding at a granularity much
// finer than the scheduler's preemption quantum keeps the pool's work
// division fair even when GOMAXPROCS is smaller than the pool — without
// it, whichever workers hold the CPUs absorb the whole graph in coarse
// preemption slices and the per-worker accounting degenerates to the
// host's core count instead of the pool size.
const yieldEvery = 64

// maxOut sentinels.
const (
	// NoOutgoing marks a card none of whose traced objects holds an
	// in-heap reference.
	NoOutgoing = -1
	// ScanAlways marks a card whose outgoing references are unknown (its
	// objects were marked wholesale by the allocate-black sweep).
	ScanAlways = int(^uint(0) >> 1)
)

// NewMarker prepares a marker over the given region-top snapshot with a
// pool of workers tracing goroutines (values < 1 mean 1). The caller has
// already cleared the mark and region bitmaps (with the world stopped,
// as part of the same handshake that took the snapshot), and calls
// Release when the cycle is over.
func NewMarker(h *pheap.Heap, snapTops []int, workers int) *Marker {
	if workers < 1 {
		workers = 1
	}
	maxOut := make([]int64, h.Geo().DataSize/pheap.SATBCardBytes)
	for i := range maxOut {
		maxOut[i] = NoOutgoing
	}
	m := &Marker{h: h, snap: snapTops, dataOff: h.Geo().DataOff, workers: workers, maxOut: maxOut}
	for i := 0; i < workers; i++ {
		wd := h.Device().NewView()
		m.ws = append(m.ws, &workerState{id: i, dq: &deque{}, wd: wd, bm: h.MarkBitmapOn(wd)})
	}
	return m
}

// Release retires the workers' device views, folding their counts into
// the device's ownerless counters. The per-worker accessors below keep
// reporting the final tallies.
func (m *Marker) Release() {
	for _, w := range m.ws {
		w.wd.Release()
	}
}

// Workers reports the pool size.
func (m *Marker) Workers() int { return m.workers }

// Counts reports the live objects and bytes marked so far, summed over
// the pool (exact: the bitmap claim gives every object one counter).
func (m *Marker) Counts() (objects, bytes int) {
	objects, bytes = m.sweptObjects, m.sweptBytes
	for _, w := range m.ws {
		objects += w.liveObjects
		bytes += w.liveBytes
	}
	return objects, bytes
}

// WorkerObjectCounts reports each worker's share of the traced objects —
// the marked-exactly-once cross-check the termination tests sum.
func (m *Marker) WorkerObjectCounts() []int {
	counts := make([]int, m.workers)
	for i, w := range m.ws {
		counts[i] = w.liveObjects
	}
	return counts
}

// MarkWorkerStats reports each worker's device traffic — the per-worker
// accounting the gcpause experiment turns into a modeled parallel
// critical path (the busiest worker bounds the phase).
func (m *Marker) MarkWorkerStats() []nvm.Stats {
	stats := make([]nvm.Stats, m.workers)
	for i, w := range m.ws {
		stats[i] = w.wd.Stats()
	}
	return stats
}

// MarkWorkerTimes reports each worker's productive tracing time — wall
// time inside the worker loop minus time parked in the termination
// barrier, accumulated over every trace call of the cycle (root mark,
// concurrent drains, final remark). Skew across workers means uneven
// work division; near-equal times with a long wall clock mean the graph
// itself serialized the pool.
func (m *Marker) MarkWorkerTimes() []time.Duration {
	times := make([]time.Duration, m.workers)
	for i, w := range m.ws {
		times[i] = w.busy - w.parked
	}
	return times
}

// MaxOutgoing exposes the per-card outgoing-reference summary (see the
// Marker field docs). Valid once marking is complete.
func (m *Marker) MaxOutgoing() []int {
	out := make([]int, len(m.maxOut))
	for i := range m.maxOut {
		out[i] = int(atomic.LoadInt64(&m.maxOut[i]))
	}
	return out
}

// belowSnapshot reports whether the object starting at device offset off
// lies below its region's snapshot top. Humongous heads carry a top
// beyond their region end, so the comparison covers them; interior
// regions hold the sentinel and never start an object.
func (m *Marker) belowSnapshot(off int) bool {
	r := (off - m.dataOff) / layout.RegionSize
	if r < 0 || r >= len(m.snap) {
		return false
	}
	top := m.snap[r]
	return pheap.IsRealTop(top) && off < top
}

// pushTo grays ref onto w's deque if it is a heap object below the
// snapshot. Slot values may carry low tag bits (the persistent index's
// link-state marks); the tag is stripped before the value is treated as
// an address.
func (m *Marker) pushTo(w *workerState, ref layout.Ref) {
	ref = layout.UntagRef(ref)
	if ref != layout.NullRef && m.h.Contains(ref) && m.belowSnapshot(m.h.OffOf(ref)) {
		w.dq.push(ref)
	}
}

// noteOutgoing raises card c's summary to at least tgt (CAS-max — racing
// workers commute).
func (m *Marker) noteOutgoing(c int, tgt int) {
	for {
		cur := atomic.LoadInt64(&m.maxOut[c])
		if int64(tgt) <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&m.maxOut[c], cur, int64(tgt)) {
			return
		}
	}
}

// atomicReader adapts a worker's accounting device to the ReadU64
// interface pheap.RefSlots walks, loading each slot with one atomic
// machine load (slots may be concurrently stored by mutators).
type atomicReader struct{ wd *nvm.View }

func (a atomicReader) ReadU64(off int) uint64 { return a.wd.ReadU64Atomic(off) }

// sizeOf decodes the klass and size of the object at off through w's
// accounting device. Headers below the snapshot are immutable while
// marking runs, so plain reads suffice.
func (m *Marker) sizeOf(w *workerState, off int) (*klass.Klass, int, error) {
	kaddr := layout.Ref(w.wd.ReadU64(off + layout.KlassWordOff))
	k, ok := m.h.KlassByAddr(kaddr)
	if !ok {
		return nil, 0, fmt.Errorf("offset %d: dangling klass word %#x", off, uint64(kaddr))
	}
	n := 0
	if k.IsArray() {
		n = int(w.wd.ReadU64(off + layout.ArrayLenOff))
	}
	return k, k.SizeOf(n), nil
}

// scan blackens the object at ref on worker w: claim its begin mark bit,
// set its end bit, count it, summarize and gray its referents. The claim
// is the dedup — of all workers holding ref on some deque, exactly one
// sees the bit flip and scans.
func (m *Marker) scan(w *workerState, ref layout.Ref) error {
	off := m.h.OffOf(ref)
	bit := (off - m.dataOff) / layout.WordSize
	if !w.bm.TrySetAtomic(bit) {
		return nil // already claimed (object starts are never interior words)
	}
	k, size, err := m.sizeOf(w, off)
	if err != nil {
		return fmt.Errorf("concurrent: marking %#x: %w", uint64(ref), err)
	}
	w.bm.SetAtomic(bit + size/layout.WordSize - 1)
	w.liveObjects++
	w.liveBytes += size
	srcCard := (off - m.dataOff) / pheap.SATBCardBytes
	pheap.RefSlots(atomicReader{w.wd}, off, k, func(slotBoff int) {
		v := layout.UntagRef(layout.Ref(w.wd.ReadU64Atomic(off + slotBoff)))
		if v != layout.NullRef && m.h.Contains(v) {
			tgt := m.h.OffOf(v)
			m.noteOutgoing(srcCard, tgt)
			if m.belowSnapshot(tgt) {
				w.dq.push(v)
			}
		}
	})
	return nil
}

// fail records the first worker error and tells the pool to bail out.
func (m *Marker) fail(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
	m.failed.Store(true)
}

// notePanic forwards a worker panic: remember the first value, release
// the pool. The coordinator re-raises it once every worker has joined,
// so a crash-injection hook firing on a worker goroutine unwinds the
// collector exactly as it would single-threaded.
func (m *Marker) notePanic(p any) {
	m.errMu.Lock()
	if m.panicVal == nil {
		m.panicVal = p
	}
	m.errMu.Unlock()
	m.failed.Store(true)
}

// steal sweeps the other deques once, moving a batch from the first
// non-empty victim into w's deque and returning one entry to scan.
func (m *Marker) steal(w *workerState) (layout.Ref, bool) {
	for i := 1; i < m.workers; i++ {
		victim := m.ws[(w.id+i)%m.workers]
		if stolen := victim.dq.stealHalf(); len(stolen) > 0 {
			for _, r := range stolen[1:] {
				w.dq.push(r)
			}
			return stolen[0], true
		}
	}
	return layout.NullRef, false
}

// anyWork reports whether any deque holds stealable gray work. The
// threshold matches stealHalf's: a single-entry deque belongs to an
// active owner mid-chain (the owner-push invariant), so waking an idle
// worker for it would only fail a steal and burn a drain round. This
// does not weaken termination — the barrier exits on the idle count,
// and "all workers idle" still implies "all deques empty".
func (m *Marker) anyWork() bool {
	for _, w := range m.ws {
		if w.dq.size() >= 2 {
			return true
		}
	}
	return false
}

// workerLoop is one worker's trace-to-termination: scan own work, steal,
// drain the worker's shard of the barrier buffers before parking, and
// retire through the idle barrier.
func (m *Marker) workerLoop(w *workerState) {
	for {
		if m.failed.Load() {
			return
		}
		if w.scanTick++; w.scanTick >= yieldEvery && m.workers > 1 {
			w.scanTick = 0
			runtime.Gosched()
		}
		if ref, ok := w.dq.popTail(); ok {
			if err := m.scan(w, ref); err != nil {
				m.fail(err)
				return
			}
			continue
		}
		if ref, ok := m.steal(w); ok {
			if err := m.scan(w, ref); err != nil {
				m.fail(err)
				return
			}
			continue
		}
		// Out of tracing work: consume barrier traffic before parking —
		// the buffer-quiescence half of the termination barrier. The
		// budget keeps a mutator that overwrites references faster than
		// we drain from postponing termination forever; whatever is
		// still buffered after the cap is simply remark work.
		if w.drainBudget > 0 {
			w.drainBudget--
			n := m.h.DrainBarrierShard(w.id, m.workers, func(r layout.Ref) { m.pushTo(w, r) })
			if n > 0 {
				m.satbConsumed.Add(int64(n))
				continue
			}
		}
		// Idle barrier: park, but watch for work stolen-from-able deques
		// (a still-active worker may push) and for pool completion. The
		// first few re-checks just yield; after that the worker sleeps in
		// naps that back off exponentially, so a long wait (another
		// worker deep in a big chain) neither burns a CPU that mutators
		// could be using nor — the subtler failure — preempts the busy
		// workers tens of thousands of times a second with its wakeups.
		m.idle.Add(1)
		parkStart := time.Now()
		nap := 20 * time.Microsecond
		for spins := 0; ; spins++ {
			if m.idle.Load() == int64(m.workers) {
				w.parked += time.Since(parkStart)
				return
			}
			if m.failed.Load() {
				w.parked += time.Since(parkStart)
				return
			}
			if m.anyWork() {
				m.idle.Add(-1)
				w.parked += time.Since(parkStart)
				break
			}
			if spins < 32 {
				runtime.Gosched()
			} else {
				time.Sleep(nap)
				if nap *= 2; nap > time.Millisecond {
					nap = time.Millisecond
				}
			}
		}
	}
}

// runWorker is workerLoop plus wall-time accounting; the deferred
// accumulate keeps busy consistent even when the loop unwinds through a
// crash-injection panic.
func (m *Marker) runWorker(w *workerState) {
	start := time.Now()
	defer func() { w.busy += time.Since(start) }()
	m.workerLoop(w)
}

// trace runs the pool to termination over whatever the deques currently
// hold, giving each worker drainBudget SATB-shard drain attempts. Worker
// 0 runs on the calling goroutine; with workers=1 no goroutine is ever
// spawned and the engine is the seed's serial trace.
func (m *Marker) trace(drainBudget int) error {
	m.idle.Store(0)
	for _, w := range m.ws {
		w.drainBudget = drainBudget
	}
	if m.workers == 1 {
		m.runWorker(m.ws[0]) // panics propagate natively
	} else {
		var wg sync.WaitGroup
		wg.Add(m.workers - 1)
		for _, w := range m.ws[1:] {
			go func(w *workerState) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						m.notePanic(p)
					}
				}()
				m.runWorker(w)
			}(w)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					m.notePanic(p)
				}
			}()
			m.runWorker(m.ws[0])
		}()
		wg.Wait()
		m.errMu.Lock()
		p := m.panicVal
		m.errMu.Unlock()
		if p != nil {
			panic(p)
		}
	}
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.err
}

// MarkRoots grays the root set and traces to the termination barrier.
// Roots are the snapshot-time root references, captured by the collector
// during the initial handshake; each is seeded onto the deque owning its
// region, so the snapshot partitions the initial work across the pool.
func (m *Marker) MarkRoots(roots []layout.Ref) error {
	for _, r := range roots {
		ref := layout.UntagRef(r)
		if ref == layout.NullRef || !m.h.Contains(ref) {
			continue
		}
		off := m.h.OffOf(ref)
		if !m.belowSnapshot(off) {
			continue
		}
		w := m.ws[((off-m.dataOff)/layout.RegionSize)%m.workers]
		w.dq.push(ref)
	}
	return m.trace(maxDrainRounds)
}

// DrainOnce runs the pool over the SATB buffers — every worker drains
// its shard concurrently with tracing the results — and reports how many
// barrier records were consumed.
func (m *Marker) DrainOnce() (int, error) {
	m.satbConsumed.Store(0)
	err := m.trace(maxDrainRounds)
	return int(m.satbConsumed.Load()), err
}

// maxDrainRounds bounds each worker's SATB drain attempts within one
// trace call: mutators that overwrite references faster than the pool
// drains would otherwise postpone the termination barrier forever.
// Whatever is still buffered after the cap is simply remark work —
// correctness never depended on reaching an empty drain, only the pause
// length does.
const maxDrainRounds = 8

// ConcurrentDrainLoop drains the SATB buffers while mutators run — the
// pool keeps tracing until every worker hit buffer quiescence or its
// drain budget. Mutators may still append records afterwards; the final
// remark collects those.
func (m *Marker) ConcurrentDrainLoop() error {
	_, err := m.DrainOnce()
	return err
}

// FinalRemark completes marking with the world stopped: one last SATB
// drain plus trace (the world is stopped, so buffer quiescence is
// reached exactly), then the allocate-black sweep — every non-filler
// object allocated since the snapshot (between each region's snapshot
// top and its current top, curTops) is marked live wholesale, so the
// summary phase sees exactly the SATB-live set. The sweep is serial: it
// is a single pass over the post-snapshot allocation suffix, already a
// small fraction of a region walk, and runs on the coordinator after
// the pool has joined. Fillers are skipped: marking a retired PLAB's
// tail filler would pin dead space (or, past HugeThreshold, whole
// regions) until the next cycle.
func (m *Marker) FinalRemark(curTops []int) error {
	if _, err := m.DrainOnce(); err != nil {
		return err
	}
	bm := m.h.MarkBitmap()
	geo := m.h.Geo()
	idx := func(off int) int { return (off - m.dataOff) / layout.WordSize }
	for r := 0; r < geo.DataRegions(); r++ {
		cur := curTops[r]
		if !pheap.IsRealTop(cur) {
			continue
		}
		lo := geo.DataOff + r*layout.RegionSize
		if r < len(m.snap) && pheap.IsRealTop(m.snap[r]) && m.snap[r] > lo {
			lo = m.snap[r]
		}
		for off := lo; off < cur; {
			k, size, err := m.h.SizeOfObjectAt(off)
			if err != nil {
				return fmt.Errorf("concurrent: allocate-black sweep at %d: %w", off, err)
			}
			if !pheap.IsFiller(k) {
				bm.Set(idx(off))
				bm.Set(idx(off) + size/layout.WordSize - 1)
				m.sweptObjects++
				m.sweptBytes += size
				// Swept objects are never scanned, so their outgoing
				// references are unknown: the compactor must rescan the
				// card at fix-up time.
				atomic.StoreInt64(&m.maxOut[(off-m.dataOff)/pheap.SATBCardBytes], int64(ScanAlways))
			}
			off += size
		}
	}
	return nil
}
