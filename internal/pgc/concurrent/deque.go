package concurrent

import (
	"sync"
	"sync/atomic"

	"espresso/internal/layout"
)

// deque is the part of a worker's gray work other workers can take. The
// owner marks from a private stack (workerState.stack) with no lock, and
// moves the older half of it here only when some worker is idle and this
// deque is empty (Marker.share); thieves take half of what is here.
// Stealing the older entries hands a thief the widest pending subgraphs
// and leaves the owner its hot, newest work. A plain mutex serializes
// both ends: the deque is touched once per shared batch, not once per
// object. The length is mirrored in an atomic so probes (a thief's
// candidate check, the idle barrier's anyWork sweep) never touch the
// lock.
type deque struct {
	mu  sync.Mutex
	buf []layout.Ref
	n   atomic.Int64
}

// pushAll appends refs. Only the owning worker pushes — the invariant
// the termination barrier leans on: a deque can only grow while its
// owner is active.
func (d *deque) pushAll(refs []layout.Ref) {
	d.mu.Lock()
	d.buf = append(d.buf, refs...)
	d.n.Store(int64(len(d.buf)))
	d.mu.Unlock()
}

// stealHalf moves half of the entries (at least one) from the head onto
// dst and returns it. The owner takes its own deque back the same way.
// One successful steal keeps a thief busy for a batch instead of sending
// it back per object.
func (d *deque) stealHalf(dst []layout.Ref) []layout.Ref {
	if d.n.Load() == 0 {
		return dst
	}
	d.mu.Lock()
	n := len(d.buf)
	k := (n + 1) / 2
	dst = append(dst, d.buf[:k]...)
	d.buf = append(d.buf[:0], d.buf[k:]...)
	d.n.Store(int64(len(d.buf)))
	d.mu.Unlock()
	return dst
}

// size reports the current length without taking the lock (exact, since
// every mutation updates the mirror before unlocking).
func (d *deque) size() int {
	return int(d.n.Load())
}
