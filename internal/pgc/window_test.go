package pgc

import (
	"fmt"
	"math/rand"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
)

// windowHeap builds a heap whose next collection evacuates in several
// windows, from a mark bitmap that differs from the persisted one both
// ways. Blocks of chained live nodes, each block followed by a dead
// array (60 % live), are collected once — their pre-collection marks stay
// in the persisted bitmap — and then unrooted, so they lie dead at the
// bottom of the heap. More blocks follow above them. The next collection
// moves every live node down; once the dead bottom is full, destinations
// land in regions whose own nodes moved earlier in the same pass.
func windowHeap(t testing.TB) (*pheap.Heap, *model) {
	t.Helper()
	h, reg := newHeap(t, 2<<20)
	// verifyGraph's Node, padded to 528 bytes: a tenth as many nodes to
	// fill the same regions as the plain one.
	fields := []klass.Field{{Name: "id", Type: layout.FTLong},
		{Name: "next", Type: layout.FTRef, RefKlass: "Node"}, {Name: "other", Type: layout.FTRef, RefKlass: "Node"}}
	for i := 0; i < 61; i++ {
		fields = append(fields, klass.Field{Name: fmt.Sprintf("pad%d", i), Type: layout.FTLong})
	}
	node, err := reg.Define(klass.MustInstance("Node", nil, fields...))
	if err != nil {
		t.Fatal(err)
	}
	longs := reg.PrimArray(layout.FTLong)
	m := &model{next: map[uint64]uint64{}, other: map[uint64]uint64{}, roots: map[string]uint64{}}
	rng := rand.New(rand.NewSource(11))
	blocks := func(root string, n int) {
		var live []layout.Ref
		first := uint64(len(m.next) + 1)
		for b := 0; b < n; b++ {
			for i := 0; i < 9; i++ {
				ref, err := h.Alloc(node, 0)
				if err != nil {
					t.Fatal(err)
				}
				id := first + uint64(len(live))
				h.SetWord(ref, layout.FieldOff(fID), id)
				m.next[id], m.other[id] = 0, 0
				if len(live) > 0 {
					o := rng.Intn(len(live))
					h.SetWord(ref, layout.FieldOff(fNext), uint64(live[len(live)-1]))
					h.SetWord(ref, layout.FieldOff(fOther), uint64(live[o]))
					m.next[id], m.other[id] = id-1, first+uint64(o)
				}
				live = append(live, ref)
			}
			if _, err := h.Alloc(longs, 400); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.SetRoot(root, live[len(live)-1]); err != nil {
			t.Fatal(err)
		}
		m.roots[root] = first + uint64(len(live)) - 1
		h.Device().FlushAll()
	}
	blocks("old", 20)
	if _, err := Collect(h, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	h.RemoveRoot("old")
	delete(m.roots, "old")
	blocks("chain", 180)
	return h, m
}

// windowsOf groups a summary's moves by the window rule, as a test
// oracle: a window grows while the next evacuation's destination
// overlaps no source of the window, its own included. It returns the
// windows as index ranges, skipping those with nothing to copy.
func windowsOf(moves []Move) [][2]int {
	var out [][2]int
	overlaps := func(lo, hi int, m Move) bool {
		for _, w := range moves[lo:hi] {
			if w.Src < m.Dst+m.Size && m.Dst < w.Src+w.Size {
				return true
			}
		}
		return false
	}
	lo, evac := 0, false
	for j, m := range moves {
		if m.Dst == m.Src {
			continue
		}
		if overlaps(lo, j+1, m) {
			out = append(out, [2]int{lo, j})
			lo = j
		}
		evac = true
	}
	if evac {
		out = append(out, [2]int{lo, len(moves)})
	}
	return out
}

type flushRec struct{ off, n int }

// recordFlushes runs fn with every flush of h's device recorded.
func recordFlushes(h *pheap.Heap, fn func()) []flushRec {
	var fs []flushRec
	h.Device().SetFlushFault(func(off, n int, _ uint64) bool {
		fs = append(fs, flushRec{off, n})
		return false
	})
	defer h.Device().SetFlushFault(nil)
	fn()
	return fs
}

func linesOf(fs []flushRec) int {
	n := 0
	for _, f := range fs {
		n += nvm.LineRange(f.off, f.n).N / nvm.LineSize
	}
	return n
}

// TestCollectPersistCost pins what a collection persists: (a) the mark
// bitmap by difference — a second collection of an unchanged heap
// flushes no line of it; (b) pass 2 by window — exactly the windows'
// merged destination lines plus one progress line per window; (c) a
// cycle's fences — two per window and a constant.
func TestCollectPersistCost(t *testing.T) {
	t.Run("bitmap", func(t *testing.T) {
		h, reg := newHeap(t, 2<<20)
		buildGraph(t, h, reg, 3, 2000, 6)
		geo := h.Geo()
		inBitmap := func(fs []flushRec) (lines int) {
			for _, f := range fs {
				if f.off >= geo.MarkBmpOff && f.off < geo.MarkBmpOff+geo.MarkBmpSize {
					lines += linesOf([]flushRec{f})
				}
			}
			return lines
		}
		for i, want := range []string{"some", "none"} {
			var err error
			got := inBitmap(recordFlushes(h, func() { _, err = Collect(h, NoRoots{}) }))
			if err != nil {
				t.Fatal(err)
			}
			if (got == 0) != (want == "none") {
				t.Fatalf("collection %d flushed %d mark-bitmap lines, want %s", i+1, got, want)
			}
		}
	})

	h, m := windowHeap(t)
	progress := nvm.LineRange(h.ProgressMetaOff(), 16)
	var res Result
	var err error
	fs := recordFlushes(h, func() { res, err = Collect(h, NoRoots{}) })
	if err != nil {
		t.Fatal(err)
	}
	verifyGraph(t, h, m)
	moves := *(*h.CollectorScratch()).(*[]Move)
	windows := windowsOf(moves)
	if len(windows) < 3 {
		t.Fatalf("the cycle has %d windows; the fixture wants at least 3", len(windows))
	}
	want := 0
	for _, w := range windows {
		var dst []nvm.Range
		for _, mv := range moves[w[0]:w[1]] {
			if mv.Dst != mv.Src {
				dst = append(dst, nvm.LineRange(mv.Dst, mv.Size))
			}
		}
		for _, r := range nvm.MergeRanges(dst) {
			want += r.N / nvm.LineSize
		}
		want++ // the progress line
	}
	// Pass 2 runs from the flush after the stamp (the timestamp's line)
	// to the last flush of the progress line; the fixture has no
	// in-place object to fix, so pass 1 flushes nothing between them.
	stamp, last := -1, -1
	for i, f := range fs {
		if stamp < 0 && nvm.LineRange(f.off, f.n) == nvm.LineRange(h.GlobalTSMetaOff(), 8) {
			stamp = i
		}
		if stamp >= 0 && f.off == progress.Off {
			last = i
		}
	}
	if stamp < 0 || last < 0 {
		t.Fatalf("no stamp (%d) or no progress flush after it (%d) among %d flushes", stamp, last, len(fs))
	}
	if got := linesOf(fs[stamp+1 : last+1]); got != want {
		t.Fatalf("pass 2 flushed %d lines; %d windows' merged destinations and progress lines are %d", got, len(windows), want)
	}
	// Besides the windows: open PLABs' headers and tops 2, lazy links 1,
	// the bitmap 1, the stamp 1, the fillers 1, the redo finish 4.
	if got, limit := res.DeviceStats.Fences, uint64(2*len(windows)+10); got > limit {
		t.Fatalf("the cycle issued %d fences; %d windows allow %d", got, len(windows), limit)
	}
}

// TestCrashSweepCompactWindows crashes the windowed compaction at every
// flush boundary and inside every multi-line flush (keeping its first
// line, every other line, or none), takes each crash image under three
// eviction policies, and requires Load + RecoverIfNeeded — plus the
// collection again when the crash came before the stamp, as a restart
// does — to end with the graph intact. The swept cycle has at least three
// windows, and its mark-bitmap batch turns bits both on and off.
func TestCrashSweepCompactWindows(t *testing.T) {
	h0, m := windowHeap(t)
	pristine := h0.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	load := func(img []byte) *pheap.Heap {
		t.Helper()
		h, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	clean := load(append([]byte(nil), pristine...))
	geo, preTS := clean.Geo(), clean.GlobalTS()
	before := append([]byte(nil), clean.Device().View(geo.MarkBmpOff, geo.MarkBmpSize)...)
	fs := recordFlushes(clean, func() {
		if _, err := Collect(clean, NoRoots{}); err != nil {
			t.Fatal(err)
		}
	})
	after := clean.Device().View(geo.MarkBmpOff, geo.MarkBmpSize)
	on, off := false, false
	for i := range before {
		on = on || after[i]&^before[i] != 0
		off = off || before[i]&^after[i] != 0
	}
	if !on || !off {
		t.Fatalf("the swept cycle's bitmap batch sets bits: %v, clears bits: %v; it needs both", on, off)
	}
	if w := windowsOf(*(*clean.CollectorScratch()).(*[]Move)); len(w) < 3 {
		t.Fatalf("the swept cycle has %d windows; it needs at least 3", len(w))
	}

	keeps := map[string]func(int) bool{
		"first":     func(l int) bool { return l == 0 },
		"alternate": func(l int) bool { return l%2 == 0 },
		"none":      func(int) bool { return false },
	}
	check := func(tag string, arm func(dev *nvm.Device)) {
		t.Helper()
		h := load(append([]byte(nil), pristine...))
		arm(h.Device())
		crashed, err := faultdev.Run(h.Device(), func() error {
			_, err := Collect(h, NoRoots{})
			return err
		})
		if err != nil || !crashed {
			t.Fatalf("%s: crashed = %v, err = %v", tag, crashed, err)
		}
		for _, pol := range []nvm.CrashPolicy{nvm.CrashFlushedOnly, nvm.CrashAllDirty, nvm.CrashRandomEviction} {
			tag := fmt.Sprintf("%s policy %d", tag, pol)
			re := load(h.Device().CrashImage(pol, int64(len(tag))))
			if _, _, err := RecoverIfNeeded(re); err != nil {
				t.Fatalf("%s: recover: %v", tag, err)
			}
			if re.GlobalTS() == preTS { // crashed before the stamp
				if _, err := Collect(re, NoRoots{}); err != nil {
					t.Fatalf("%s: collect after a crash before the stamp: %v", tag, err)
				}
			}
			verifyGraph(t, re, m)
		}
	}
	for k := range fs {
		n := uint64(k + 1)
		check(fmt.Sprintf("after flush %d", n), func(dev *nvm.Device) { faultdev.CrashIn(dev, n) })
		if fs[k].n <= nvm.LineSize && nvm.LineRange(fs[k].off, fs[k].n).N == nvm.LineSize {
			continue
		}
		for name, keep := range keeps {
			check(fmt.Sprintf("inside flush %d keeping %s", n, name), func(dev *nvm.Device) {
				faultdev.CrashInsideFlush(dev, dev.Stats().Flushes+n, keep)
			})
		}
	}
}
