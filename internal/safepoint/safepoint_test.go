package safepoint

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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
	interval := func(enter, exit func()) {
		defer wg.Done()
		for !done.Load() {
			enter()
			inside.Add(1)
			runtime.Gosched()
			inside.Add(-1)
			exit()
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
	a.Pin()
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
		b.Pin() // must park: a stop is in progress
		close(late)
		b.Unpin()
	}()
	unpinned.Store(true)
	a.Unpin()
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
	s.Pin()
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
	s.Unpin()
	<-stopped
	p.Start()
	p.NewSlot()
	if n := len(*p.slots.Load()); n != 1 {
		t.Fatalf("%d slots registered after the retiree unpinned, want 1", n)
	}
}
