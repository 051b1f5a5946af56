package nvm

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTripAccessors(t *testing.T) {
	d := New(Config{Size: 4096, Mode: Tracked})
	d.WriteU64(0, 0xdeadbeefcafebabe)
	if got := d.ReadU64(0); got != 0xdeadbeefcafebabe {
		t.Fatalf("ReadU64 = %#x", got)
	}
	d.WriteU32(16, 0x12345678)
	if got := d.ReadU32(16); got != 0x12345678 {
		t.Fatalf("ReadU32 = %#x", got)
	}
	d.WriteU16(24, 0xbeef)
	if got := d.ReadU16(24); got != 0xbeef {
		t.Fatalf("ReadU16 = %#x", got)
	}
	d.WriteByteAt(30, 0x7f)
	if got := d.ReadByteAt(30); got != 0x7f {
		t.Fatalf("ReadByteAt = %#x", got)
	}
	p := []byte("persistent java heap")
	d.WriteBytes(100, p)
	q := make([]byte, len(p))
	d.ReadBytes(100, q)
	if !bytes.Equal(p, q) {
		t.Fatalf("ReadBytes = %q", q)
	}
}

func TestSizeRoundedToLine(t *testing.T) {
	d := New(Config{Size: 100})
	if d.Size() != 128 {
		t.Fatalf("size = %d, want 128", d.Size())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := New(Config{Size: 128})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	d.WriteU64(128-4, 1)
}

func TestUnflushedDataDoesNotSurviveCrash(t *testing.T) {
	d := New(Config{Size: 1024, Mode: Tracked})
	d.WriteU64(0, 111)
	d.Flush(0, 8)
	d.Fence()
	d.WriteU64(64, 222) // never flushed

	img := d.CrashImage(CrashFlushedOnly, 0)
	re := FromImage(img, Config{Size: 1024, Mode: Tracked})
	if got := re.ReadU64(0); got != 111 {
		t.Fatalf("flushed word lost: %d", got)
	}
	if got := re.ReadU64(64); got != 0 {
		t.Fatalf("unflushed word survived CrashFlushedOnly: %d", got)
	}
}

func TestCrashAllDirtyKeepsEverything(t *testing.T) {
	d := New(Config{Size: 1024, Mode: Tracked})
	d.WriteU64(0, 111)
	d.WriteU64(512, 222)
	img := d.CrashImage(CrashAllDirty, 0)
	re := FromImage(img, Config{Size: 1024})
	if re.ReadU64(0) != 111 || re.ReadU64(512) != 222 {
		t.Fatal("dirty lines should all survive CrashAllDirty")
	}
}

func TestCrashRandomEvictionIsLineGranular(t *testing.T) {
	// Two words on the same line either both survive or both vanish;
	// words on distinct lines may differ.
	for seed := int64(0); seed < 32; seed++ {
		d := New(Config{Size: 1024, Mode: Tracked})
		d.WriteU64(0, 1)
		d.WriteU64(8, 2) // same line as offset 0
		img := d.CrashImage(CrashRandomEviction, seed)
		a, b := le64(img, 0), le64(img, 8)
		if (a == 0) != (b == 0) {
			t.Fatalf("seed %d: same-line words diverged: %d %d", seed, a, b)
		}
	}
}

func le64(b []byte, off int) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[off+i])
	}
	return v
}

func TestFlushClearsDirtyBits(t *testing.T) {
	d := New(Config{Size: 1024, Mode: Tracked})
	d.WriteU64(0, 1)
	d.WriteU64(128, 2)
	if got := d.DirtyLines(); got != 2 {
		t.Fatalf("dirty lines = %d, want 2", got)
	}
	d.Flush(0, 8)
	if got := d.DirtyLines(); got != 1 {
		t.Fatalf("dirty lines after flush = %d, want 1", got)
	}
	d.FlushAll()
	if got := d.DirtyLines(); got != 0 {
		t.Fatalf("dirty lines after FlushAll = %d, want 0", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := New(Config{Size: 1024})
	d.WriteU64(0, 1)
	d.WriteBytes(64, make([]byte, 128))
	d.Flush(0, 8) // 1 line
	d.Flush(64, 128)
	d.Fence()
	s := d.Stats()
	if s.Writes != 2 || s.BytesWritten != 8+128 {
		t.Fatalf("writes = %d bytes = %d", s.Writes, s.BytesWritten)
	}
	if s.Flushes != 2 || s.FlushedLines != 3 {
		t.Fatalf("flushes = %d lines = %d, want 2/3", s.Flushes, s.FlushedLines)
	}
	if s.Fences != 1 {
		t.Fatalf("fences = %d", s.Fences)
	}
	if s.ModeledFlushTime() != 3*ModeledLineLatency {
		t.Fatalf("modeled flush time = %v", s.ModeledFlushTime())
	}
	if got, want := (Stats{Reads: 2, FlushedLines: 3}).ModeledTime(), 3*ModeledLineLatency+2*ModeledReadLatency; got != want {
		t.Fatalf("modeled time = %v, want %v", got, want)
	}
	prev := s
	d.WriteU64(0, 2)
	if diff := d.Stats().Sub(prev); diff.Writes != 1 || diff.Flushes != 0 {
		t.Fatalf("Sub = %+v", diff)
	}
}

func TestNoFlushModeSkipsWriteback(t *testing.T) {
	d := New(Config{Size: 1024, Mode: Tracked})
	d.SetNoFlush(true)
	d.WriteU64(0, 42)
	d.Flush(0, 8)
	s := d.Stats()
	if s.Flushes != 1 || s.FlushedLines != 0 {
		t.Fatalf("noflush stats = %+v", s)
	}
	img := d.CrashImage(CrashFlushedOnly, 0)
	if le64(img, 0) != 0 {
		t.Fatal("noflush mode must not persist data")
	}
}

func TestMoveOverlap(t *testing.T) {
	d := New(Config{Size: 1024})
	for i := 0; i < 16; i++ {
		d.WriteByteAt(100+i, byte(i))
	}
	d.Move(96, 100, 16) // overlapping, dst < src
	for i := 0; i < 16; i++ {
		if got := d.ReadByteAt(96 + i); got != byte(i) {
			t.Fatalf("overlap move byte %d = %d", i, got)
		}
	}
}

func TestFlushHook(t *testing.T) {
	d := New(Config{Size: 1024, Mode: Tracked})
	var seen []uint64
	d.SetFlushHook(func(n uint64) { seen = append(seen, n) })
	d.Flush(0, 8)
	d.Flush(0, 8)
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("hook counts = %v", seen)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "heap.img")
	d := New(Config{Size: 2048, Mode: Tracked})
	d.WriteU64(0, 77)
	d.Flush(0, 8)
	d.WriteU64(8, 88) // unflushed: must not reach the file
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadFile(path, Config{Mode: Tracked})
	if err != nil {
		t.Fatal(err)
	}
	if re.Size() != 2048 {
		t.Fatalf("reloaded size = %d", re.Size())
	}
	if re.ReadU64(0) != 77 || re.ReadU64(8) != 0 {
		t.Fatalf("reloaded contents = %d %d", re.ReadU64(0), re.ReadU64(8))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bogus.img")
	if err := os.WriteFile(path, []byte("not an image at all........"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, Config{}); err == nil {
		t.Fatal("expected error loading garbage file")
	}
}

// Property: after any sequence of writes and flushes, the persisted view of
// a flushed region equals the memory view, and a CrashFlushedOnly image of
// a never-written region is zero.
func TestQuickPersistedMatchesFlushed(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		d := New(Config{Size: 4096, Mode: Tracked})
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			off := int(op) % (4096 - 8)
			switch rng.Intn(3) {
			case 0:
				d.WriteU64(off, rng.Uint64())
			case 1:
				d.Flush(off, 8)
			case 2:
				d.Fence()
			}
		}
		d.FlushAll()
		img := d.CrashImage(CrashFlushedOnly, 0)
		for off := 0; off+8 <= 4096; off += 8 {
			if le64(img, off) != d.ReadU64(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDisjointLineTraffic pins the device's concurrency
// contract: writers and flushers on disjoint cache lines (the PLAB
// discipline) are race-free, counters account every operation, and the
// dirty bitmap converges. Run it under -race.
func TestConcurrentDisjointLineTraffic(t *testing.T) {
	const goroutines = 8
	const perG = 200
	d := New(Config{Size: goroutines * perG * LineSize, Mode: Tracked})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * perG * LineSize
			for i := 0; i < perG; i++ {
				off := base + i*LineSize
				d.WriteU64(off, uint64(g)<<32|uint64(i))
				d.Flush(off, 8)
				d.Fence()
				_ = d.Stats() // concurrent snapshots must be safe
			}
		}(g)
	}
	wg.Wait()
	s := d.Stats()
	if want := uint64(goroutines * perG); s.Writes != want || s.Flushes != want || s.Fences != want {
		t.Fatalf("stats = %+v, want %d writes/flushes/fences", s, want)
	}
	if s.FlushedLines != uint64(goroutines*perG) {
		t.Fatalf("flushed lines = %d", s.FlushedLines)
	}
	if d.DirtyLines() != 0 {
		t.Fatalf("dirty lines = %d after flushing everything", d.DirtyLines())
	}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if got := d.ReadU64((g*perG + i) * LineSize); got != uint64(g)<<32|uint64(i) {
				t.Fatalf("word %d/%d = %#x", g, i, got)
			}
		}
	}
}

// TestMergeRanges: line-widened ranges, handed in any order, come out
// sorted with every overlap and adjacency collapsed — each line once.
func TestMergeRanges(t *testing.T) {
	if got, want := LineRange(70, 60), (Range{Off: 64, N: 128}); got != want {
		t.Fatalf("LineRange(70, 60) = %+v, want %+v", got, want)
	}
	for _, tc := range []struct{ in, want []Range }{
		{nil, nil},
		{[]Range{{64, 64}}, []Range{{64, 64}}},
		{[]Range{{256, 64}, {0, 64}, {64, 64}, {0, 128}, {512, 64}, {192, 128}}, []Range{{0, 128}, {192, 128}, {512, 64}}},
		{[]Range{{0, 64}, {128, 64}}, []Range{{0, 64}, {128, 64}}},
		{[]Range{{0, 256}, {64, 64}}, []Range{{0, 256}}},
	} {
		if got := MergeRanges(slices.Clone(tc.in)); !slices.Equal(got, tc.want) {
			t.Errorf("MergeRanges(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
