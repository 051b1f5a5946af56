package safepoint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"espresso/internal/asym"
	"espresso/internal/stackstripe"
)

// TestStopExcludesEveryInterval runs slot owners and ownerless readers
// against a stopper: between Stop and Start nobody may be inside an
// interval, and nobody may enter one.
func TestStopExcludesEveryInterval(t *testing.T) {
	var (
		p      Point
		inside atomic.Int64
		done   atomic.Bool
		wg     sync.WaitGroup
	)
	interval := func(pin func() Token, unpin func(Token)) {
		defer wg.Done()
		for !done.Load() {
			t := pin()
			inside.Add(1)
			runtime.Gosched()
			inside.Add(-1)
			unpin(t)
		}
	}
	for i := 0; i < 4; i++ {
		s := p.NewSlot()
		wg.Add(2)
		go interval(s.Pin, s.Unpin)
		go interval(p.RLock, p.RUnlock)
	}
	for i := 0; i < 200; i++ {
		p.Stop()
		for k := 0; k < 10; k++ {
			if n := inside.Load(); n != 0 {
				t.Fatalf("stop %d: %d intervals in flight inside the pause", i, n)
			}
			runtime.Gosched()
		}
		p.Start()
	}
	done.Store(true)
	wg.Wait()
}

// TestStopWaitsForPinnedSlot pins a slot, starts a stop, and unpins only
// once the stop has announced itself: the stop must finish after the
// unpin, and a pin attempted meanwhile must wait for Start. Two owners'
// slots, then two ownerless readers of the shared one (which counts them:
// the second reader's backed-out pin must not release the first's).
func TestStopWaitsForPinnedSlot(t *testing.T) {
	t.Run("own", func(t *testing.T) {
		var p Point
		stopWaitsForPinned(t, &p, p.NewSlot(), p.NewSlot())
	})
	t.Run("shared", func(t *testing.T) {
		var p Point
		stopWaitsForPinned(t, &p, p.Shared(), p.Shared())
	})
}

func stopWaitsForPinned(t *testing.T, p *Point, a, b *Slot) {
	ta := a.Pin()
	var unpinned atomic.Bool
	stopped := make(chan bool)
	go func() {
		p.Stop()
		stopped <- unpinned.Load()
	}()
	for !p.stopping.Load() {
		runtime.Gosched()
	}
	late := make(chan struct{})
	go func() {
		tb := b.Pin() // must park: a stop is in progress
		close(late)
		b.Unpin(tb)
	}()
	unpinned.Store(true)
	a.Unpin(ta)
	if !<-stopped {
		t.Fatal("Stop returned while a slot was still pinned")
	}
	select {
	case <-late:
		t.Fatal("a slot pinned inside the pause")
	default:
	}
	p.Start()
	<-late
}

// TestRetireInsideOwnInterval retires a slot while it is pinned and a
// stop is waiting on it: Retire must return at once, the stop must keep
// waiting until the unpin, and the next registration drops the slot.
func TestRetireInsideOwnInterval(t *testing.T) {
	var p Point
	s := p.NewSlot()
	tok := s.Pin()
	stopped := make(chan struct{})
	go func() {
		p.Stop()
		close(stopped)
	}()
	for !p.stopping.Load() {
		runtime.Gosched()
	}
	s.Retire() // a registry lock shared with the stopper would deadlock here
	if n := len(*p.slots.Load()); n != 1 {
		t.Fatalf("%d slots registered, want the pinned retiree kept", n)
	}
	select {
	case <-stopped:
		t.Fatal("Stop ignored a retired slot that was still pinned")
	default:
	}
	s.Unpin(tok)
	<-stopped
	p.Start()
	p.NewSlot()
	if n := len(*p.slots.Load()); n != 1 {
		t.Fatalf("%d slots registered after the retiree unpinned, want 1", n)
	}
}

// grow calls fn from depth frames down, deep enough that a goroutine
// started with a small stack must have it copied to a bigger one first.
//
//go:noinline
func grow(depth int, fn func()) {
	var pad [256]byte
	if depth == 0 {
		fn()
		return
	}
	grow(depth-1, fn)
	pad[depth%len(pad)]++
}

// TestSharedPinAcrossStackGrowth pins the shared slot from fresh
// goroutines, each of which copies its stack to a bigger one by deep
// recursion before it unpins — so the stack it unpins on hashes, nearly
// always, to another stripe than the one it pinned on — while a loop
// stops and starts the world. No stop may overlap an interval, and once
// every reader has left each stripe must read zero: the unpin went back
// to the stripe the pin counted in, whatever the stack did in between.
func TestSharedPinAcrossStackGrowth(t *testing.T) {
	var (
		p      Point
		inside atomic.Int64
		moved  atomic.Int64
		done   atomic.Bool
		wg     sync.WaitGroup
	)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				var one sync.WaitGroup
				one.Add(1)
				go func() { // a fresh goroutine: a small stack, not yet grown
					defer one.Done()
					tok := p.RLock()
					inside.Add(1)
					grow(64, func() {
						if stackstripe.Pick() != int(tok) {
							moved.Add(1)
						}
						runtime.Gosched()
					})
					inside.Add(-1)
					p.RUnlock(tok)
				}()
				one.Wait()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p.Stop()
		for k := 0; k < 10; k++ {
			if n := inside.Load(); n != 0 {
				t.Fatalf("stop %d: %d shared intervals in flight inside the pause", i, n)
			}
			runtime.Gosched()
		}
		p.Start()
	}
	done.Store(true)
	wg.Wait()
	for i := range p.pins {
		if n := p.pins[i].n.Load(); n != 0 {
			t.Fatalf("stripe %d reads %d with every reader gone", i, int32(n))
		}
	}
	if moved.Load() == 0 {
		t.Fatal("no interval ended on another stripe than it began on: the test moved no stack")
	}
}

// TestPinStopExclusion is the owner slots' handshake at full speed, the
// race the stop's asym.Heavy exists for: owners pin and unpin in a tight
// loop and raise a private word while pinned, and a stopper stops the
// world over and over. Between Stop and Start it raises paused and checks
// that every word is clear, and an owner that reads paused inside its
// interval counts a breach: a pin a stop missed — its store still in the
// store buffer while its load of stopping read the old flag — runs inside
// the pause and shows on one side or the other. An owner that met a stop
// parks until Start, so after each Start the stopper waits for every
// owner to finish two more intervals: the next stop then lands on owners
// that are pinning, not on owners still waking up. Without -race this is
// the plain-store path (asym.Fast); under it, atomic stores on both sides.
func TestPinStopExclusion(t *testing.T) {
	const stops = 20000
	type owner struct {
		up   atomic.Uint32 // 1 while inside an interval
		laps atomic.Uint64 // intervals finished
		_    [52]byte
	}
	var (
		p      Point
		owners = make([]owner, max(runtime.GOMAXPROCS(0)-1, 1))
		paused atomic.Bool
		breach atomic.Int64
		done   atomic.Bool
		wg     sync.WaitGroup
	)
	for i := range owners {
		s, o := p.NewSlot(), &owners[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				tok := s.Pin()
				o.up.Store(1)
				for k := 0; k < 16; k++ {
					if paused.Load() {
						breach.Add(1)
					}
				}
				o.up.Store(0)
				s.Unpin(tok)
				o.laps.Add(1)
			}
		}()
	}
	for i := 0; i < stops; i++ {
		p.Stop()
		paused.Store(true)
		for k := range owners {
			if owners[k].up.Load() != 0 {
				breach.Add(1)
			}
		}
		paused.Store(false)
		p.Start()
		for k := range owners {
			for from := owners[k].laps.Load(); owners[k].laps.Load() < from+2; {
				runtime.Gosched()
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if n := breach.Load(); n != 0 {
		t.Fatalf("%d breaches in %d stops: an owner ran inside the pause (fast path %v)", n, stops, asym.Fast())
	}
}

// BenchmarkPin is one interval's pin and unpin and nothing inside it:
// owned on a slot of the goroutine's own (two plain stores and a load of
// stopping where asym has its fast path), shared on the Point's striped
// shared slot (two atomic adds). Read it at -cpu 1,2: neither writes a
// line another goroutine writes, so ns/op should halve.
func BenchmarkPin(b *testing.B) {
	b.Run("owned", func(b *testing.B) {
		var p Point
		b.RunParallel(func(pb *testing.PB) {
			s := p.NewSlot()
			defer s.Retire()
			for pb.Next() {
				s.Unpin(s.Pin())
			}
		})
	})
	b.Run("shared", func(b *testing.B) {
		var p Point
		b.RunParallel(func(pb *testing.PB) {
			s := p.Shared()
			for pb.Next() {
				s.Unpin(s.Pin())
			}
		})
	})
}
