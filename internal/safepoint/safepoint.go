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
// Unpin), which counts them instead: an atomic add each way, on one of
// stackstripe.Count line-padded stripes picked by the reader's stack, so
// two readers on two cores rarely write one line. A reader's stack can
// move between its pin and its unpin, so Pin returns the stripe it
// counted in as a Token and Unpin takes it back; on an owner's slot the
// Token carries nothing. A caller written once for both kinds holds a
// *Slot, passes Pin's Token to Unpin (defer s.Unpin(s.Pin())) and does
// not care which kind it holds.
//
// The two sides are Dekker's algorithm. A pin writes its slot, then
// loads stopping; a stop stores stopping, then loads every slot. Of a
// racing pin and stop at least one must see the other: either the pin
// sees stopping and backs out, or the stop sees the slot set (a stripe's
// count above zero) and waits for it to clear. A stop reads the stripes
// one at a time, and that is enough: every unpin leaves the stripe its
// pin entered, so no stripe ever reads below the readers inside it, and a
// reader that has left cannot come back while stopping is raised.
//
// Only the stop is fenced. A stop is rare and a pin is on every access,
// so an owner writes its slot with a plain store (asym.Store32) and a
// stop calls asym.Heavy between raising stopping and loading the slots:
// a barrier on every CPU running this process, the asymmetric Dekker of
// liburcu and of HotSpot's serialization page. That suffices because a
// pin's store being overtaken by its own load of stopping is the one
// reordering x86-TSO allows. A pin whose store the stop's loads missed
// had not issued it before the barrier, so its load of stopping comes
// after the barrier too and sees the flag; and an unpin's plain store is
// ordered after every load and store of the interval, so a stop that
// reads the slot clear finds the interval over. The shared slot keeps
// sequentially consistent atomic adds, which it needs for its many
// writers anyway. Where asym has no fast path (-race, other hosts) the
// owner's store is atomic and Heavy does nothing: the same protocol with
// the fence on both sides.
package safepoint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"espresso/internal/asym"
	"espresso/internal/stackstripe"
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
	// Its readers count in pins, in the stripe of their stack at Pin.
	shared     Slot
	sharedOnce sync.Once
	_          [8]uint64 // keep the stripes off the lines every pin reads
	pins       [stackstripe.Count]pinStripe
}

// pinStripe is one stripe of the shared slot's reader count, a line from
// the next.
type pinStripe struct {
	n atomic.Uint32
	_ [60]byte
}

// Token is what Pin returns and the matching Unpin takes back: on the
// shared slot, the stripe the pin counted in; on an owner's slot, zero.
type Token uint32

// Shared returns the slot of the readers that have none of their own. It
// is safe for concurrent use, unlike an owner's slot, and is never
// retired.
func (p *Point) Shared() *Slot {
	p.sharedOnce.Do(func() { p.shared.p, p.shared.shared = p, true })
	return &p.shared
}

// RLock enters a safepoint interval as an ownerless reader: no stop can
// complete until the matching RUnlock, which takes the Token RLock
// returned. Intervals must not nest on one goroutine — a stop arriving
// between the two deadlocks the second behind the first.
func (p *Point) RLock() Token { return p.Shared().Pin() }

// RUnlock leaves an ownerless reader's safepoint interval.
func (p *Point) RUnlock(t Token) { p.Shared().Unpin(t) }

// Stop stops the world: it returns once every safepoint interval in
// flight has ended, and no new one begins until Start. Stops from
// several goroutines queue.
func (p *Point) Stop() {
	p.mu.Lock()
	p.stopping.Store(true)
	// Owners pin with plain stores: make every store issued before this
	// point visible, and every load after it see stopping.
	asym.Heavy()
	if slots := p.slots.Load(); slots != nil {
		for _, s := range *slots {
			drain(s.held)
		}
	}
	drain(p.sharedHeld)
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
	// pinned is 1 while the owner is inside an interval. The shared slot
	// leaves it zero and counts in the Point's pins.
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
// matching Unpin, which must be handed the Token Pin returns. Intervals
// must not nest.
func (s *Slot) Pin() Token {
	var t Token
	if s.shared {
		t = Token(stackstripe.Pick())
	}
	for {
		if s.shared {
			s.p.pins[t].n.Add(1)
		} else {
			asym.Store32(&s.pinned, 1)
		}
		if !s.p.stopping.Load() {
			return t
		}
		// A stop is in progress and may already have read this slot as
		// clear: back out, then wait for the world to start by passing
		// through the lock the stopper holds.
		s.Unpin(t)
		s.p.mu.RLock()
		s.p.mu.RUnlock() // nothing to do inside: acquiring was the wait
	}
}

// Unpin leaves the safepoint interval Pin entered; t is what Pin
// returned.
func (s *Slot) Unpin(t Token) {
	if s.shared {
		s.p.pins[t].n.Add(^uint32(0))
	} else {
		asym.Store32(&s.pinned, 0)
	}
}

// Retire gives the slot up. It takes no lock and never waits, so it is
// safe from inside the slot's own interval and while a stop is in
// progress; the slot keeps holding stops off until it is unpinned. The
// owner must not pin it again.
func (s *Slot) Retire() { s.retired.Store(true) }

// held reports whether the slot's owner is inside an interval.
func (s *Slot) held() bool { return s.pinned.Load() != 0 }

// sharedHeld reports whether any reader of the shared slot is inside an
// interval: whether its stripes sum above zero.
func (p *Point) sharedHeld() bool {
	var n uint32
	for i := range p.pins {
		n += p.pins[i].n.Load()
	}
	return n != 0
}

// drain waits for held to report false: a slot's interval, or the shared
// slot's, to end. Intervals are a handful of device accesses except under
// Mutator.Do, so it yields a few times before it starts sleeping.
func drain(held func() bool) {
	for i := 0; held(); i++ {
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}
