package nvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// accessor is the method set Device and View have in common.
type accessor interface {
	ReadU64(off int) uint64
	ReadU64Atomic(off int) uint64
	WriteU64(off int, v uint64)
	WriteU64Atomic(off int, v uint64)
	CompareAndSwapU64(off int, old, new uint64) bool
	OrU64Atomic(off int, mask uint64) uint64
	ReadBytes(off int, p []byte)
	WriteBytes(off int, p []byte)
	Move(dst, src, n int)
	Zero(off, n int)
	Flush(off, n int)
	Fence()
}

var (
	_ accessor = (*Device)(nil)
	_ accessor = (*View)(nil)
)

// outcome is everything an access can leave behind that a caller or a
// crash could observe.
type outcome struct {
	result   string // return value, or the panic it raised
	stats    Stats
	dirty    int
	mem      []byte
	flushed  []byte   // Tracked: CrashFlushedOnly image
	evicted  []byte   // Tracked: CrashAllDirty image
	ordinals []uint64 // flush-hook arguments, in order
}

func (o outcome) diff(p outcome) string {
	switch {
	case o.result != p.result:
		return fmt.Sprintf("result %q vs %q", o.result, p.result)
	case o.stats != p.stats:
		return fmt.Sprintf("stats %+v vs %+v", o.stats, p.stats)
	case o.dirty != p.dirty:
		return fmt.Sprintf("dirty lines %d vs %d", o.dirty, p.dirty)
	case !bytes.Equal(o.mem, p.mem):
		return "memory views differ"
	case !bytes.Equal(o.flushed, p.flushed):
		return "flushed-only crash images differ"
	case !bytes.Equal(o.evicted, p.evicted):
		return "all-dirty crash images differ"
	case fmt.Sprint(o.ordinals) != fmt.Sprint(p.ordinals):
		return fmt.Sprintf("flush ordinals %v vs %v", o.ordinals, p.ordinals)
	}
	return ""
}

// TestViewAccountingEquivalence runs every operation through the Device,
// through an owner's View and through the Unowned view, from identical
// starting states, and requires identical results, Stats, dirty and
// persisted state, crash images, flush-hook ordinals and panics.
func TestViewAccountingEquivalence(t *testing.T) {
	const size = 1024
	ops := []struct {
		name string
		run  func(a accessor) any
	}{
		{"ReadU64", func(a accessor) any { return a.ReadU64(72) }},
		{"ReadU64Atomic", func(a accessor) any { return a.ReadU64Atomic(72) }},
		{"WriteU64", func(a accessor) any { a.WriteU64(200, 7); return nil }},
		{"WriteU64/straddle", func(a accessor) any { a.WriteU64(60, 7); return nil }},
		{"WriteU64Atomic", func(a accessor) any { a.WriteU64Atomic(200, 7); return nil }},
		{"CAS/hit", func(a accessor) any { return a.CompareAndSwapU64(72, 0x0101010101010101, 9) }},
		{"CAS/miss", func(a accessor) any { return a.CompareAndSwapU64(72, 5, 9) }},
		{"Or/changes", func(a accessor) any { return a.OrU64Atomic(72, 2) }},
		{"Or/no-op", func(a accessor) any { return a.OrU64Atomic(72, 1) }},
		{"ReadBytes", func(a accessor) any { p := make([]byte, 100); a.ReadBytes(30, p); return p }},
		{"ReadBytes/empty", func(a accessor) any { a.ReadBytes(30, nil); return nil }},
		{"WriteBytes", func(a accessor) any { a.WriteBytes(130, []byte("persistent java heap")); return nil }},
		{"WriteBytes/short", func(a accessor) any { a.WriteBytes(130, []byte("pjh")); return nil }},
		{"Move", func(a accessor) any { a.Move(300, 40, 150); return nil }},
		{"Move/overlap", func(a accessor) any { a.Move(48, 40, 150); return nil }},
		{"Zero", func(a accessor) any { a.Zero(100, 90); return nil }},
		{"Flush/dirty", func(a accessor) any { a.WriteU64(200, 7); a.Flush(190, 30); return nil }},
		{"Flush/clean", func(a accessor) any { a.Flush(512, 64); return nil }},
		{"Flush/empty", func(a accessor) any { a.Flush(512, 0); return nil }},
		{"Flush/twice", func(a accessor) any { a.Flush(0, 64); a.WriteU64(8, 1); a.Flush(0, 128); return nil }},
		{"Fence", func(a accessor) any { a.Fence(); return nil }},
		{"persist", func(a accessor) any {
			a.WriteU64(640, 1)
			a.Flush(640, 8)
			a.Fence()
			a.WriteU64(704, 2)
			return a.ReadU64(640)
		}},
		{"out-of-range/read", func(a accessor) any { return a.ReadU64(size - 4) }},
		{"out-of-range/write", func(a accessor) any { a.WriteU64(size, 1); return nil }},
		{"out-of-range/negative", func(a accessor) any { return a.ReadU64Atomic(-8) }},
		{"out-of-range/bytes", func(a accessor) any { a.WriteBytes(size-2, []byte("abc")); return nil }},
		{"out-of-range/move", func(a accessor) any { a.Move(0, size-8, 16); return nil }},
		{"out-of-range/zero", func(a accessor) any { a.Zero(size-8, 16); return nil }},
		{"out-of-range/flush", func(a accessor) any { a.Flush(size-8, 16); return nil }},
		{"unaligned/load", func(a accessor) any { return a.ReadU64Atomic(12) }},
		{"unaligned/store", func(a accessor) any { a.WriteU64Atomic(12, 1); return nil }},
		{"unaligned/cas", func(a accessor) any { return a.CompareAndSwapU64(12, 0, 1) }},
		{"unaligned/or", func(a accessor) any { return a.OrU64Atomic(12, 1) }},
		{"media-error/read", func(a accessor) any { return a.ReadU64(904) }},
		{"media-error/atomic", func(a accessor) any { return a.ReadU64Atomic(904) }},
		{"media-error/bytes", func(a accessor) any { a.ReadBytes(890, make([]byte, 20)); return nil }},
		{"media-error/move", func(a accessor) any { a.Move(0, 896, 32); return nil }},
		{"dropped-flush", func(a accessor) any { a.WriteU64(960, 3); a.Flush(960, 8); return nil }},
	}
	paths := []struct {
		name string
		pick func(d *Device) accessor
	}{
		{"view", func(d *Device) accessor { return d.NewView() }},
		{"unowned", func(d *Device) accessor { return d.Unowned() }},
	}
	// The third configuration is the no-flush device (§6.4's clflush-less
	// baseline): flushes are counted but write nothing back, flush no
	// lines, and so price at nothing — the owned and ownerless paths must
	// agree on that too. A subtest's name carries the mode and what the
	// configuration prices the warm-up's one-line flush at, in ns.
	for _, cfg := range []struct {
		mode    Mode
		noFlush bool
	}{{Direct, false}, {Tracked, false}, {Tracked, true}} {
		warm := Stats{Writes: 2, BytesWritten: 16, Flushes: 1, FlushedLines: 1}
		if cfg.noFlush {
			warm.FlushedLines = 0
		}
		observe := func(pick func(d *Device) accessor, run func(a accessor) any) outcome {
			d := New(Config{Size: size, Mode: cfg.mode})
			d.SetNoFlush(cfg.noFlush)
			for i := range d.mem {
				d.mem[i] = 1 // 0x0101…: CAS/hit matches, Or/no-op is a no-op
			}
			d.SetReadFault(func(off, n int) bool { return off < 912 && off+n > 896 })
			d.SetFlushFault(func(off, n int, _ uint64) bool { return off >= 960 })
			var o outcome
			d.SetFlushHook(func(count uint64) { o.ordinals = append(o.ordinals, count) })
			// A flush and a write from nobody in particular first, so the
			// ordinal is not 1 and something is dirty.
			d.WriteU64(448, 5)
			d.Flush(448, 8)
			d.WriteU64(456, 6)
			a := pick(d)
			func() {
				defer func() {
					if p := recover(); p != nil {
						o.result = fmt.Sprintf("panic: %v", p)
					}
				}()
				o.result = fmt.Sprint(run(a))
			}()
			o.stats = d.Stats()
			o.dirty = d.DirtyLines()
			o.mem = append([]byte(nil), d.mem...)
			if cfg.mode == Tracked {
				o.flushed = d.CrashImage(CrashFlushedOnly, 0)
				o.evicted = d.CrashImage(CrashAllDirty, 0)
			}
			if v, ok := a.(*View); ok && v.c != nil {
				// What the view says it did is what the device says
				// happened beyond the three ownerless warm-up accesses.
				if got, want := v.Stats(), o.stats.Sub(warm); got != want {
					t.Errorf("view's own stats %+v, device delta %+v", got, want)
				}
			}
			return o
		}
		for _, op := range ops {
			want := observe(func(d *Device) accessor { return d }, op.run)
			for _, path := range paths {
				t.Run(fmt.Sprintf("mode%d-lat%d/%s/%s", cfg.mode, warm.ModeledFlushTime().Nanoseconds(), op.name, path.name), func(t *testing.T) {
					if d := want.diff(observe(path.pick, op.run)); d != "" {
						t.Errorf("device vs %s: %s", path.name, d)
					}
				})
			}
		}
	}
}

// TestViewStatsSumIsExact drives owned and ownerless traffic from many
// goroutines at once, each counting what it issued, and checks that the
// ownerless stripes plus the live cells equal Stats() — the sum of those
// tallies — at quiescence, again after views are released, and again
// after ResetStats. A reader polls Stats throughout (it must never see a
// counter go backwards across a release).
func TestViewStatsSumIsExact(t *testing.T) {
	const (
		owners    = 6
		ownerless = 2
		span      = 4096 // bytes per goroutine, disjoint
		opsEach   = 4000
	)
	d := New(Config{Size: (owners + ownerless) * span, Mode: Tracked})
	views := make([]*View, owners)
	for i := range views {
		views[i] = d.NewView()
	}

	round := func(seed int64, release func(i int)) Stats {
		t.Helper()
		var (
			wg      sync.WaitGroup
			mu      sync.Mutex
			total   Stats
			running atomic.Bool
		)
		running.Store(true)
		pollDone := make(chan struct{})
		go func() {
			defer close(pollDone)
			var prev Stats
			for running.Load() {
				s := d.Stats()
				if s.Reads < prev.Reads || s.Writes < prev.Writes || s.BytesRead < prev.BytesRead ||
					s.BytesWritten < prev.BytesWritten || s.Flushes < prev.Flushes ||
					s.FlushedLines < prev.FlushedLines || s.Fences < prev.Fences {
					t.Errorf("Stats went backwards: %+v after %+v", s, prev)
					return
				}
				prev = s
			}
		}()
		for g := 0; g < owners+ownerless; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var a accessor = d
				if g < owners {
					a = views[g]
				}
				rng := rand.New(rand.NewSource(seed + int64(g)))
				base := g * span
				var mine Stats
				buf := make([]byte, 200)
				for i := 0; i < opsEach; i++ {
					off := base + rng.Intn(span-256)&^7
					n := 1 + rng.Intn(len(buf))
					switch rng.Intn(9) {
					case 0:
						a.ReadU64(off)
						mine.Reads, mine.BytesRead = mine.Reads+1, mine.BytesRead+8
					case 1:
						a.WriteU64Atomic(off, uint64(i))
						mine.Writes, mine.BytesWritten = mine.Writes+1, mine.BytesWritten+8
					case 2:
						a.ReadBytes(off, buf[:n])
						mine.Reads, mine.BytesRead = mine.Reads+1, mine.BytesRead+uint64(n)
					case 3:
						a.WriteBytes(off, buf[:n])
						mine.Writes, mine.BytesWritten = mine.Writes+1, mine.BytesWritten+uint64(n)
					case 4:
						mine.Reads, mine.BytesRead = mine.Reads+1, mine.BytesRead+8
						if a.CompareAndSwapU64(off, a.ReadU64Atomic(off), uint64(i)) {
							mine.Writes, mine.BytesWritten = mine.Writes+1, mine.BytesWritten+8
						}
						mine.Reads, mine.BytesRead = mine.Reads+1, mine.BytesRead+8
					case 5:
						a.Zero(off, n)
						mine.Writes, mine.BytesWritten = mine.Writes+1, mine.BytesWritten+uint64(n)
					case 6:
						a.Flush(off, n)
						lines := uint64(LineSpan(off, n))
						mine.Flushes++
						mine.FlushedLines += lines
					case 7:
						a.Fence()
						mine.Fences++
					case 8:
						a.Move(off, off+64, n%64+1)
						mine.Reads, mine.BytesRead = mine.Reads+1, mine.BytesRead+uint64(n%64+1)
						mine.Writes, mine.BytesWritten = mine.Writes+1, mine.BytesWritten+uint64(n%64+1)
					}
				}
				if g < owners {
					release(g)
				}
				mu.Lock()
				total = total.Add(mine)
				mu.Unlock()
			}(g)
		}
		wg.Wait()
		running.Store(false)
		<-pollDone
		return total
	}

	// Quiescent, every view live.
	want := round(1, func(int) {})
	if got := d.Stats(); got != want {
		t.Fatalf("all views live: Stats %+v, issued %+v", got, want)
	}
	var sum Stats
	for i := range d.stripes {
		sum = sum.Add(d.stripes[i].load())
	}
	for _, v := range views {
		sum = sum.Add(v.Stats())
	}
	if got := sum; got != want {
		t.Fatalf("stripes + cells %+v, Stats %+v", got, want)
	}

	// Releasing moves counts, it does not change them — also when the
	// releases race with traffic and with the polling reader.
	views[0].Release()
	views[0].Release() // idempotent
	if got := d.Stats(); got != want {
		t.Fatalf("after one release: Stats %+v, want %+v", got, want)
	}
	views[0] = d.NewView()
	want = want.Add(round(2, func(i int) {
		if i%2 == 1 {
			views[i].Release()
		}
	}))
	if got := d.Stats(); got != want {
		t.Fatalf("after racing releases: Stats %+v, issued %+v", got, want)
	}
	if n := len(d.views); n != owners/2 {
		t.Fatalf("%d views registered after releasing half of %d", n, owners)
	}

	// ResetStats zeroes the stripes and the live cells alike.
	d.ResetStats()
	if got := d.Stats(); got != (Stats{}) {
		t.Fatalf("after ResetStats: %+v", got)
	}
	for i := 1; i < owners; i += 2 {
		views[i] = d.NewView()
	}
	want = round(3, func(int) {})
	if got := d.Stats(); got != want {
		t.Fatalf("after ResetStats and more traffic: Stats %+v, issued %+v", got, want)
	}
}

// grow calls fn from depth frames down: deep enough that the goroutine's
// stack has to be copied to a bigger one, so an ownerless access before
// and one after count on stacks at different addresses — and, often, in
// different stripes.
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

// TestTwoClientStatsAreExact runs an ownerless and an owned client side by
// side, the ownerless one moving its stack between accesses, and requires
// Stats to equal what the two issued once they stop: counts spread over
// stripes, and over stripes picked by stacks that have since moved, still
// sum exactly.
func TestTwoClientStatsAreExact(t *testing.T) {
	const rounds = 300
	d := New(Config{Size: 2 * 4096, Mode: Tracked})
	v := d.NewView()
	client := func(a accessor, base, depth int) {
		for i := 0; i < rounds; i++ {
			off := base + i%32*LineSize
			grow(depth*(i%3), func() {
				a.WriteU64(off, uint64(i))
				a.ReadBytes(off, make([]byte, 24))
				a.Flush(off, 2*LineSize)
				a.Fence()
			})
			a.ReadU64(off)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); client(d, 0, 64) }()
	go func() { defer wg.Done(); client(v, 4096, 0) }()
	wg.Wait()
	each := Stats{Writes: rounds, BytesWritten: 8 * rounds, Reads: 2 * rounds, BytesRead: 32 * rounds,
		Flushes: rounds, FlushedLines: 2 * rounds, Fences: rounds}
	if got, want := d.Stats(), each.Add(each); got != want {
		t.Fatalf("Stats %+v, the two clients issued %+v", got, want)
	}
	if got := v.Stats(); got != each {
		t.Fatalf("owned client's view %+v, it issued %+v", got, each)
	}
	v.Release()
	if got, want := d.Stats(), each.Add(each); got != want {
		t.Fatalf("after Release: Stats %+v, want %+v", got, want)
	}
}

// TestHookedFlushOrdinalFollowsTheCounts runs owned and ownerless traffic
// with no hook installed — so no flush ordinal is kept — and then installs
// a flush hook and a flush fault: the first hooked flush must be number
// Stats().Flushes+1, the same ordinal it got when every flush counted in
// one device-wide counter, and the ordinals must run on from there
// whichever path issues the flush. ResetStats restarts them at 1.
func TestHookedFlushOrdinalFollowsTheCounts(t *testing.T) {
	for _, install := range []struct {
		name string
		arm  func(d *Device, got *[]uint64)
	}{
		{"hook", func(d *Device, got *[]uint64) {
			d.SetFlushHook(func(n uint64) { *got = append(*got, n) })
		}},
		{"fault", func(d *Device, got *[]uint64) {
			d.SetFlushFault(func(_, _ int, n uint64) bool { *got = append(*got, n); return false })
		}},
	} {
		t.Run(install.name, func(t *testing.T) {
			d := New(Config{Size: 4 * 4096, Mode: Tracked})
			v := d.NewView()
			var wg sync.WaitGroup
			for g, a := range []accessor{d, v, d} {
				wg.Add(1)
				go func(g int, a accessor) {
					defer wg.Done()
					for i := 0; i < 50+g; i++ {
						off := g*4096 + i%16*LineSize
						a.WriteU64(off, uint64(i))
						a.Flush(off, 8)
					}
				}(g, a)
			}
			wg.Wait()
			d.FlushAll()
			base := d.Stats().Flushes
			if base != 50+51+52+1 {
				t.Fatalf("%d flushes counted before the hook, want %d", base, 50+51+52+1)
			}
			var got []uint64
			install.arm(d, &got)
			d.Flush(0, 8)
			v.Flush(4096, 8)
			d.Unowned().Flush(64, 8)
			v.Flush(4096+64, 64)
			want := []uint64{base + 1, base + 2, base + 3, base + 4}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("hooked flushes got ordinals %v, want %v", got, want)
			}
			if n := d.Stats().Flushes; n != base+4 {
				t.Fatalf("Stats().Flushes = %d after four hooked flushes, want %d", n, base+4)
			}
			d.ResetStats()
			got = got[:0]
			v.Flush(4096, 8)
			if fmt.Sprint(got) != "[1]" {
				t.Fatalf("first flush after ResetStats got ordinal %v, want [1]", got)
			}
		})
	}
}

// BenchmarkAccounting is the number behind the cell's design note in
// view.go and the ownerless stripes in device.go: one access per
// iteration from every goroutine, on lines no other goroutine touches,
// counted in the ownerless stripes or in the goroutine's own view — a
// ReadU64, or a one-line Flush, which also counts a flush and its lines.
// Read it at -cpu 1,2: with nothing shared, -cpu 2 is about half of
// -cpu 1.
func BenchmarkAccounting(b *testing.B) {
	const span = 1 << 16
	var sink atomic.Uint64
	run := func(b *testing.B, pick func(d *Device) accessor, op func(a accessor, off int) uint64) {
		d := New(Config{Size: 64 * span})
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			a := pick(d)
			base := int(next.Add(1)-1) % 64 * span
			var s uint64
			for off := 0; pb.Next(); off = (off + LineSize) % span {
				s += op(a, base+off)
			}
			sink.Add(s)
		})
	}
	ownerless := func(d *Device) accessor { return d }
	owned := func(d *Device) accessor { return d.NewView() }
	read := func(a accessor, off int) uint64 { return a.ReadU64(off) }
	flush := func(a accessor, off int) uint64 { a.Flush(off, 8); return 0 }
	b.Run("read/ownerless", func(b *testing.B) { run(b, ownerless, read) })
	b.Run("read/owned", func(b *testing.B) { run(b, owned, read) })
	b.Run("flush/ownerless", func(b *testing.B) { run(b, ownerless, flush) })
	b.Run("flush/owned", func(b *testing.B) { run(b, owned, flush) })
}
