// Package marker is the persistent collector's mark phase: a parallel
// trace of the object graph, with the world stopped, that sets the mark
// bitmap's begin and end bits for every live object and summarizes, per
// card, how far each card's objects point.
//
// The marker traces below the region tops taken at the pause: an object
// starts below its region's top, so a slot value above it is not an
// object and is not followed.
//
// Tracing is parallel: N workers each mark from a private gray stack,
// seeded from the root set by the region each root points into. A worker
// pushes and pops its own stack with no lock and no store another worker
// reads. Work is shared only on demand: while some worker is idle and a
// busy worker's deque is empty, the busy worker moves the older half of
// its stack into its deque, and idle workers steal half of a deque at a
// time. A worker that runs dry takes its own deque back, then steals,
// and then parks. Termination is a steal-failure barrier: a worker
// retires only after its stack and its deque are empty and a steal sweep
// over every other deque failed; the trace is over when every worker has
// retired at once. That is sound because workers push only to their own
// stacks and deques — both can be non-empty only while their owner is
// active, so "all workers idle" implies "no gray object anywhere". A
// linked-chain walk keeps one pending node at a time, so it stays on its
// worker's stack and is never shared: the chain is serial work wherever
// it runs.
//
// The mark bitmap is shared between workers and written with atomic
// fetch-OR word operations; a worker claims an object by flipping its
// begin bit from clear to set, so every object is scanned (and counted)
// by exactly one worker no matter how many stacks it was pushed onto.
// With workers=1 no goroutine is started and nothing is ever shared: the
// worker pops its stack until it is empty.
package marker

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
	tops    []int // region tops at the pause (raw table encoding)
	dataOff int
	workers int

	ws []*workerState

	// Every worker reads the fields above on every scan; the counter
	// below is written when a worker parks, so it keeps a line of its
	// own.
	_ [layout.LineSize]byte

	// idle counts workers currently parked in the termination barrier;
	// the trace completes when it reaches the pool size. A busy worker
	// shares work only while it is positive.
	idle atomic.Int64
	_    [layout.LineSize]byte

	// wake holds up to one token per worker for the parked workers: a
	// share sends one, the end of the trace and a failure fill it.
	wake chan struct{}

	// maxOut[c] is the highest device offset any traced object starting
	// in card c (CardBytes granularity) points at (NoOutgoing if none).
	// The compactor uses it to skip reference fixing for cards that
	// provably cannot reference a moved object. Workers race on it with
	// CAS-max, which commutes: the final table is order-independent.
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
}

// workerState is one worker's state: its private gray stack, its
// accounting view of the device, its bitmap view through that device,
// its share of the live counts, and its deque. Only its owning goroutine
// touches the fields above the deque; the deque is what other workers
// read and lock, so padding keeps it off their lines and off the next
// worker's.
type workerState struct {
	id int
	// stack is the worker's gray objects, pushed and popped at the end.
	stack       []layout.Ref
	wd          *nvm.View
	bm          *pheap.Bitmap
	liveObjects int
	liveBytes   int
	scanTick    int // scans since the last voluntary yield
	// busy is this worker's wall time inside workerLoop; parked is the
	// portion spent in the idle barrier. busy − parked is the worker's
	// productive time — the skew signal Result.MarkWorkerTimes reports
	// (every worker's total wall time is roughly equal by construction:
	// all retire together).
	busy, parked time.Duration

	_  [layout.LineSize]byte
	dq deque
	_  [layout.LineSize]byte
}

// yieldEvery is how many scans a worker performs between voluntary
// runtime.Gosched calls. Busy workers yielding at a granularity much
// finer than the scheduler's preemption quantum keeps the pool's work
// division fair even when GOMAXPROCS is smaller than the pool — without
// it, whichever workers hold the CPUs absorb the whole graph in coarse
// preemption slices and the per-worker accounting degenerates to the
// host's core count instead of the pool size.
const yieldEvery = 64

// CardBytes is the granularity of the outgoing-reference summary: fine
// enough that a region shared between a stable graph and an active
// allocation area does not drag the whole stable part back into the
// compactor's reference fixing, coarse enough that the table stays a few
// words per megabyte.
const CardBytes = 16 << 10

// NoOutgoing marks a card none of whose traced objects holds an in-heap
// reference.
const NoOutgoing = -1

// NewMarker prepares a marker over h's current region tops with a pool
// of workers tracing goroutines (values < 1 mean 1). The world is
// stopped and the caller has already cleared the mark and region
// bitmaps; it calls Release when the cycle is over.
func NewMarker(h *pheap.Heap, workers int) *Marker {
	if workers < 1 {
		workers = 1
	}
	maxOut := make([]int64, h.Geo().DataSize/CardBytes)
	for i := range maxOut {
		maxOut[i] = NoOutgoing
	}
	m := &Marker{h: h, tops: h.SnapshotRegionTops(), dataOff: h.Geo().DataOff, workers: workers, maxOut: maxOut,
		wake: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		wd := h.Device().NewView()
		m.ws = append(m.ws, &workerState{id: i, wd: wd, bm: h.MarkBitmapOn(wd)})
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
// barrier. Skew across workers means uneven
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

// belowTop reports whether device offset off lies below its region's
// top. Humongous heads carry a top beyond their region end, so the
// comparison covers them; interior regions hold the sentinel and never
// start an object.
func (m *Marker) belowTop(off int) bool {
	r := (off - m.dataOff) / layout.RegionSize
	if r < 0 || r >= len(m.tops) {
		return false
	}
	top := m.tops[r]
	return pheap.IsRealTop(top) && off < top
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

// sizeOf decodes the klass and size of the object at off through w's
// accounting device.
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
// is the dedup — of all workers holding ref on some stack, exactly one
// sees the bit flip and scans.
func (m *Marker) scan(w *workerState, ref layout.Ref) error {
	off := m.h.OffOf(ref)
	bit := (off - m.dataOff) / layout.WordSize
	if !w.bm.TrySetAtomic(bit) {
		return nil // already claimed (object starts are never interior words)
	}
	k, size, err := m.sizeOf(w, off)
	if err != nil {
		return fmt.Errorf("marker: marking %#x: %w", uint64(ref), err)
	}
	w.bm.SetAtomic(bit + size/layout.WordSize - 1)
	w.liveObjects++
	w.liveBytes += size
	srcCard := (off - m.dataOff) / CardBytes
	pheap.RefSlots(w.wd, off, k, func(slotBoff int) {
		v := layout.UntagRef(layout.Ref(w.wd.ReadU64(off + slotBoff)))
		if v != layout.NullRef && m.h.Contains(v) {
			tgt := m.h.OffOf(v)
			m.noteOutgoing(srcCard, tgt)
			if m.belowTop(tgt) {
				w.stack = append(w.stack, v)
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
	m.wakeAll()
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
	m.wakeAll()
}

// share moves the older half of w's stack, rounded up, into its deque,
// where idle workers can steal it, and wakes one of them. A worker
// walking a chain with one other root pending hands that root over.
func (m *Marker) share(w *workerState) {
	k := (len(w.stack) + 1) / 2
	w.dq.pushAll(w.stack[:k])
	w.stack = w.stack[:copy(w.stack, w.stack[k:])]
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// wakeAll wakes every parked worker: the pool is done or has failed.
func (m *Marker) wakeAll() {
	for i := 0; i < m.workers; i++ {
		select {
		case m.wake <- struct{}{}:
		default:
			return
		}
	}
}

// steal sweeps the other deques once, moving half of the first non-empty
// victim's onto w's stack, and reports whether it found any.
func (m *Marker) steal(w *workerState) bool {
	for i := 1; i < m.workers; i++ {
		victim := m.ws[(w.id+i)%m.workers]
		if w.stack = victim.dq.stealHalf(w.stack); len(w.stack) > 0 {
			return true
		}
	}
	return false
}

// anyWork reports whether any deque holds gray work to steal.
func (m *Marker) anyWork() bool {
	for _, w := range m.ws {
		if w.dq.size() > 0 {
			return true
		}
	}
	return false
}

// workerLoop is one worker's trace-to-termination: scan its own stack
// (sharing half of it when a worker is idle and its deque is empty), take
// its deque back, steal, and retire through the idle barrier.
func (m *Marker) workerLoop(w *workerState) {
	for {
		if m.failed.Load() {
			return
		}
		if w.scanTick++; w.scanTick >= yieldEvery && m.workers > 1 {
			w.scanTick = 0
			runtime.Gosched()
		}
		if n := len(w.stack); n > 0 {
			ref := w.stack[n-1]
			w.stack = w.stack[:n-1]
			if n > 1 && m.idle.Load() > 0 && w.dq.size() == 0 {
				m.share(w)
			}
			if err := m.scan(w, ref); err != nil {
				m.fail(err)
				return
			}
			continue
		}
		if w.stack = w.dq.stealHalf(w.stack); len(w.stack) > 0 || m.steal(w) {
			continue
		}
		// Idle barrier: park until a deque holds work (a still-active
		// worker shares once it sees idle > 0, and wakes one parked
		// worker when it does) or the pool is done. The first few
		// re-checks just yield; after that the worker blocks on the wake
		// channel, so a long wait (another worker deep in a big chain)
		// neither burns a CPU nor preempts the busy workers with wakeups
		// of its own. It blocks rather than
		// naps because work is shared only for an idle worker to take:
		// with naps of up to a millisecond, a mark at gc_churn's shape
		// took 0.4–2 ms longer on two workers (BenchmarkPersistentGC).
		m.idle.Add(1)
		parkStart := time.Now()
		for spins := 0; ; spins++ {
			if m.idle.Load() == int64(m.workers) {
				m.wakeAll()
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
				<-m.wake
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
	m.h.DrainBarrierShard(w.id, m.workers)
	m.workerLoop(w)
}

// trace runs the pool to termination over whatever the stacks hold.
// Each worker first publishes its shard of the contexts' remembered-set
// deltas. Worker 0 runs on the calling goroutine; with workers=1 no
// goroutine is ever spawned.
func (m *Marker) trace() error {
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
// Roots are the root references the collector captured with the world
// stopped; each is seeded onto the stack of the worker owning its region,
// so the region layout partitions the initial work across the pool. A
// marker traces once.
func (m *Marker) MarkRoots(roots []layout.Ref) error {
	for _, r := range roots {
		ref := layout.UntagRef(r)
		if ref == layout.NullRef || !m.h.Contains(ref) {
			continue
		}
		off := m.h.OffOf(ref)
		if !m.belowTop(off) {
			continue
		}
		w := m.ws[((off-m.dataOff)/layout.RegionSize)%m.workers]
		w.stack = append(w.stack, ref)
	}
	return m.trace()
}
