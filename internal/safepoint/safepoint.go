// Package safepoint is the mutator handshake: the one mechanism by which
// a collector pause waits out every in-flight heap operation and holds
// new ones until it is done. core.Runtime has one Point for its heaps;
// every pshard.Shard has one of its own.
//
// Every reader pins a Slot. A reader with an identity — a core.Mutator, a
// pshard.Ctx's handle on one shard, a PMap's pooled pindex.Ctx — has one
// of its own: a cache-line-padded word only it writes. Pinning stores 1
// to the slot and then loads the Point's stopping flag, a line that is
// only ever written by a stop and so stays Shared in every cache;
// unpinning stores 0. A HotSpot safepoint poll is thread-local for the
// same reason. Ownerless readers (Runtime-level accessors, tools) all pin
// the Point's one shared slot (Shared; RLock and RUnlock are its Pin and
// Unpin), which counts them instead: an atomic add each way, two locked
// read-modify-writes on a line every such reader shares — what the read
// side of a lock would cost, and the slow path. A caller written once for
// both kinds holds a *Slot and does not care which it is.
//
// The two sides are Dekker's algorithm. A pin writes its slot, then
// loads stopping; a stop stores stopping, then loads every slot. Go's
// atomics are sequentially consistent, so of a racing pin and stop at
// least one sees the other: either the pin sees stopping and backs out,
// or the stop sees the slot set (the count above zero) and waits for it
// to clear.
package safepoint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one safepoint domain. The zero value is ready to use.
type Point struct {
	// mu serializes stops. A stop holds the write side for its whole
	// pause, so readers that back out of a pin park on the read side
	// until the world starts again.
	mu sync.RWMutex

	// regMu guards updates of slots. A stop never holds it: it works
	// from the list it loads after raising stopping, so registering or
	// retiring a slot — which a mutator may do inside its own pin —
	// cannot wait on a stop that is waiting on that pin.
	regMu sync.Mutex
	// slots is replaced, never modified, so a stop can walk the list it
	// loaded without a lock. A slot registered after that load was
	// created after stopping was raised and will see it on its first
	// pin.
	slots atomic.Pointer[[]*Slot]

	_        [8]uint64 // keep stopping off the lines the mutexes are bounced on
	stopping atomic.Bool
	_        [8]uint64

	// shared is the slot every ownerless reader pins; it is not in slots.
	shared     Slot
	sharedOnce sync.Once
}

// Shared returns the slot of the readers that have none of their own. It
// is safe for concurrent use, unlike an owner's slot, and is never
// retired.
func (p *Point) Shared() *Slot {
	p.sharedOnce.Do(func() { p.shared.p, p.shared.shared = p, true })
	return &p.shared
}

// RLock enters a safepoint interval as an ownerless reader: no stop can
// complete until the matching RUnlock. Intervals must not nest on one
// goroutine — a stop arriving between the two deadlocks the second
// behind the first.
func (p *Point) RLock() { p.Shared().Pin() }

// RUnlock leaves an ownerless reader's safepoint interval.
func (p *Point) RUnlock() { p.Shared().Unpin() }

// Stop stops the world: it returns once every safepoint interval in
// flight has ended, and no new one begins until Start. Stops from
// several goroutines queue.
func (p *Point) Stop() {
	p.mu.Lock()
	p.stopping.Store(true)
	if slots := p.slots.Load(); slots != nil {
		for _, s := range *slots {
			s.drain()
		}
	}
	p.shared.drain()
}

// Stopping reports whether a stop is requested or holding the world: from
// the moment Stop has raised its flag — every interval begun after that
// waits — until Start. Diagnostics, and tests that must act while a pause
// is pending.
func (p *Point) Stopping() bool { return p.stopping.Load() }

// Start restarts the world after Stop.
func (p *Point) Start() {
	p.stopping.Store(false)
	p.mu.Unlock()
}

// Slot is one owner's pin on a Point. Not safe for concurrent use; the
// owner is one goroutine at a time. (The Point's shared slot is the
// exception on both counts.)
type Slot struct {
	_ [8]uint64 // cache-line pad
	// pinned is 1 while the owner is inside an interval; on the shared
	// slot, the number of readers that are.
	pinned atomic.Uint32
	// retired is set once by Retire; a retired slot that reads unpinned
	// is dropped from the Point's list by the next registration.
	retired atomic.Bool
	shared  bool
	p       *Point
	_       [8]uint64 // cache-line pad
}

// NewSlot registers a pin slot for a new owner. Retire it when the owner
// goes away.
func (p *Point) NewSlot() *Slot {
	s := &Slot{p: p}
	p.regMu.Lock()
	defer p.regMu.Unlock()
	var live []*Slot
	if old := p.slots.Load(); old != nil {
		live = make([]*Slot, 0, len(*old)+1)
		for _, o := range *old {
			// A retired slot's owner never pins again, so once it reads
			// unpinned it stays so and no stop needs to look at it.
			if !o.retired.Load() || o.pinned.Load() != 0 {
				live = append(live, o)
			}
		}
	}
	live = append(live, s)
	p.slots.Store(&live)
	return s
}

// Pin enters a safepoint interval: no stop can complete until the
// matching Unpin. Intervals must not nest.
func (s *Slot) Pin() {
	for {
		if s.shared {
			s.pinned.Add(1)
		} else {
			s.pinned.Store(1)
		}
		if !s.p.stopping.Load() {
			return
		}
		// A stop is in progress and may already have read this slot as
		// clear: back out, then wait for the world to start by passing
		// through the lock the stopper holds.
		s.Unpin()
		s.p.mu.RLock()
		s.p.mu.RUnlock() // nothing to do inside: acquiring was the wait
	}
}

// Unpin leaves the safepoint interval.
func (s *Slot) Unpin() {
	if s.shared {
		s.pinned.Add(^uint32(0))
	} else {
		s.pinned.Store(0)
	}
}

// Retire gives the slot up. It takes no lock and never waits, so it is
// safe from inside the slot's own interval and while a stop is in
// progress; the slot keeps holding stops off until it is unpinned. The
// owner must not pin it again.
func (s *Slot) Retire() { s.retired.Store(true) }

// drain waits for the slot's interval, if any, to end. Intervals are a
// handful of device accesses except under Mutator.Do, so it yields a
// few times before it starts sleeping.
func (s *Slot) drain() {
	for i := 0; s.pinned.Load() != 0; i++ {
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}
