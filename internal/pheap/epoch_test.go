package pheap

import (
	"fmt"
	"sync"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
)

// Tests of the one-persist allocation protocol's recovery rule: what Load
// finds above a persisted region top (the allocation epoch, torn runs,
// every crash policy), the format step that made the rule load-bearing
// (version 5 → 6, the timestamp checksum), and the volatile top under
// concurrent readers.

// chainKlass is a node that links its predecessor through a real
// reference field, so a root names every node before it.
func chainKlass(t testing.TB, reg *klass.Registry) *klass.Klass {
	t.Helper()
	k, err := reg.Define(klass.MustInstance("epoch/Link", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "check", Type: layout.FTLong},
		klass.Field{Name: "prev", Type: layout.FTRef, RefKlass: "epoch/Link"}))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

const linkCheck = 0xC0FFEE00

// newLink allocates node id behind prev, whole inside its allocation.
func newLink(a *Allocator, k *klass.Klass, id int, prev layout.Ref) (layout.Ref, error) {
	return a.AllocInit(k, 0, func(r layout.Ref) {
		a.SetWord(r, layout.FieldOff(0), uint64(id))
		a.SetWord(r, layout.FieldOff(1), linkCheck+uint64(id))
		a.SetWord(r, layout.FieldOff(2), uint64(prev))
	})
}

// reloadChain loads img, requires it to parse, and walks the chain from
// the root (if the image has one): every node a durable word names must be
// a parsed object, whole. It returns the heap and the parsed link offsets.
func reloadChain(t *testing.T, tag string, img []byte) (*Heap, map[int]bool) {
	t.Helper()
	re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatalf("%s: load: %v", tag, err)
	}
	parsed := map[int]bool{}
	if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if k.Name == "epoch/Link" {
			parsed[off] = true
		}
		return true
	}); err != nil {
		t.Fatalf("%s: image does not parse: %v", tag, err)
	}
	if root, ok := re.GetRoot("chain"); ok {
		for r := root; r != layout.NullRef; r = layout.Ref(re.GetWord(r, layout.FieldOff(2))) {
			if !parsed[re.OffOf(r)] {
				t.Fatalf("%s: the chain names %#x, which is not an object of the image", tag, uint64(r))
			}
			if id := re.GetWord(r, layout.FieldOff(0)); re.GetWord(r, layout.FieldOff(1)) != linkCheck+id {
				t.Fatalf("%s: link %d at %d is half an object", tag, id, re.OffOf(r))
			}
		}
	}
	return re, parsed
}

// TestCrashSweepBumpAllocsEveryPolicy crashes a run of bump allocations
// and the root store that names them after every flush, and reopens the
// image each crash policy leaves: every object whose allocation had
// returned is in the image, whole — found by the forward parse, the
// region's persisted top still being the opened mark — and everything the
// root names is.
func TestCrashSweepBumpAllocsEveryPolicy(t *testing.T) {
	const n = 12
	type policy struct {
		name  string
		p     nvm.CrashPolicy
		seeds int
	}
	policies := []policy{{"flushed-only", nvm.CrashFlushedOnly, 1}, {"all-dirty", nvm.CrashAllDirty, 1}, {"eviction", nvm.CrashRandomEviction, 8}}
	for k := uint64(1); ; k++ {
		h, reg := testHeap(t, Config{})
		link := chainKlass(t, reg)
		a := h.NewAllocator()
		if _, err := a.klassAddr(link); err != nil {
			t.Fatal(err)
		}
		var acked []layout.Ref
		faultdev.CrashIn(h.Device(), k)
		crashed, err := faultdev.Run(h.Device(), func() error {
			var prev layout.Ref
			for i := 1; i <= n; i++ {
				r, err := newLink(a, link, i, prev)
				if err != nil {
					return err
				}
				acked, prev = append(acked, r), r
			}
			return h.SetRoot("chain", prev)
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if top := h.dev.ReadU64(h.RegionTopMetaOff(0)); len(acked) > 0 && int(top) != h.geo.DataOff {
			t.Fatalf("k=%d: the bump path moved the persisted top to %d", k, top)
		}
		for _, pol := range policies {
			for seed := 0; seed < pol.seeds; seed++ {
				tag := fmt.Sprintf("k=%d %s seed %d", k, pol.name, seed)
				re, parsed := reloadChain(t, tag, h.Device().CrashImage(pol.p, int64(k)<<8|int64(seed)))
				for i, r := range acked {
					if !parsed[re.OffOf(r)] {
						t.Fatalf("%s: acknowledged link %d at %d is not in the image", tag, i+1, re.OffOf(r))
					}
					if re.GetWord(r, layout.FieldOff(1)) != linkCheck+uint64(i+1) {
						t.Fatalf("%s: acknowledged link %d is half an object", tag, i+1)
					}
				}
				if len(parsed) > len(acked)+1 {
					t.Fatalf("%s: %d links parsed, %d acknowledged and one in flight", tag, len(parsed), len(acked))
				}
				if _, ok := re.GetRoot("chain"); !crashed && !ok {
					t.Fatalf("%s: completed run lost its root", tag)
				}
			}
		}
		if !crashed {
			if len(acked) != n {
				t.Fatalf("completed run acknowledged %d of %d", len(acked), n)
			}
			return
		}
	}
}

// TestTornRunEveryLineSubset tears the one flush of a bump allocation —
// a 2-object AllocRun, and an AllocInit spanning three lines — at every
// subset of its lines (flushes before one fence persist in any order) and
// reopens each image. The region parses; the chain the root names, built
// and acknowledged before the torn operation, is whole; and whatever the
// parse accepted of the torn operation — a header line in, a later line
// out — is an object nothing reachable names: its allocation never
// returned.
func TestTornRunEveryLineSubset(t *testing.T) {
	var longs []klass.Field // header + 22 longs: 192 bytes, three lines
	for i := 0; i < 22; i++ {
		longs = append(longs, klass.Field{Name: fmt.Sprintf("f%d", i), Type: layout.FTLong})
	}
	type torn struct {
		name  string
		lines int
		op    func(f *initFixture, wide *klass.Klass) error
	}
	ops := []torn{
		{"run of 2", 2, func(f *initFixture, _ *klass.Klass) error { _, _, err := f.pair(); return err }},
		{"3-line object", 3, func(f *initFixture, wide *klass.Klass) error {
			_, err := f.a.AllocInit(wide, 0, func(r layout.Ref) {
				for i := 0; i < 22; i++ {
					f.a.SetWord(r, layout.FieldOff(i), bigMagic+uint64(i))
				}
			})
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			for mask := 0; mask < 1<<op.lines; mask++ {
				f := newInitFixture(t, nil)
				link := chainKlass(t, f.h.reg)
				wideK, err := f.h.reg.Define(klass.MustInstance("epoch/Wide", nil, longs...))
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []*klass.Klass{link, wideK} {
					if _, err := f.a.klassAddr(k); err != nil {
						t.Fatal(err)
					}
				}
				// Two acknowledged links and the root naming them, then pad
				// to a line boundary so the torn flush covers exactly
				// op.lines lines — and flush the last pad, so no deferred
				// header is left for the torn operation to settle first.
				var prev layout.Ref
				for i := 1; i <= 2; i++ {
					if prev, err = newLink(f.a, link, i, prev); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.h.SetRoot("chain", prev); err != nil {
					t.Fatal(err)
				}
				for f.a.cur%layout.LineSize != 0 {
					pad, err := f.a.Alloc(f.box, 0)
					if err != nil {
						t.Fatal(err)
					}
					f.a.FlushRange(pad, 0, f.box.SizeOf(0))
				}
				at := f.a.cur
				dev := f.h.Device()
				covered := 0
				faultdev.CrashInsideFlush(dev, dev.Stats().Flushes+1, func(line int) bool {
					covered = max(covered, line+1)
					return mask&(1<<line) != 0
				})
				crashed, err := faultdev.Run(dev, func() error { return op.op(f, wideK) })
				dev.SetFlushFault(nil)
				if err != nil || !crashed {
					t.Fatalf("mask %b: crashed = %v, err = %v", mask, crashed, err)
				}
				if covered != op.lines {
					t.Fatalf("the torn flush covered %d lines, want %d", covered, op.lines)
				}
				tag := fmt.Sprintf("mask %0*b", op.lines, mask)
				re, parsed := reloadChain(t, tag, dev.CrashImage(nvm.CrashFlushedOnly, 0))
				if len(parsed) != 2 {
					t.Fatalf("%s: %d links in the image, want the 2 acknowledged", tag, len(parsed))
				}
				// Whatever parses at or past the torn operation's start is
				// unacknowledged: no slot of the reachable chain names it.
				named := map[int]bool{}
				root, _ := re.GetRoot("chain")
				for r := root; r != layout.NullRef; r = layout.Ref(re.GetWord(r, layout.FieldOff(2))) {
					named[re.OffOf(r)] = true
				}
				accepted := 0
				if err := re.ForEachObject(func(off int, k *klass.Klass, size int) bool {
					if off >= at && !IsFiller(k) {
						accepted++
						if named[off] {
							t.Fatalf("%s: the chain names the unacknowledged %s at %d", tag, k.Name, off)
						}
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				// The header line is line 0: without it nothing of the
				// operation may be accepted; with every line, all of it.
				if mask&1 == 0 && accepted != 0 {
					t.Fatalf("%s: %d objects accepted behind a header line that never persisted", tag, accepted)
				}
				if mask == 1<<op.lines-1 && accepted == 0 {
					t.Fatalf("%s: every line persisted and nothing was accepted", tag)
				}
			}
		})
	}
}

// TestEpochStaleBytesAboveTopDoNotParse: what an earlier epoch left above
// a persisted top — here a whole region of objects, abandoned by a
// timestamp step like the one every collection's finish takes — is not
// taken for this epoch's allocations, and a header stops validating at
// the first wrong word: timestamp, klass, size.
func TestEpochStaleBytesAboveTopDoNotParse(t *testing.T) {
	h, reg := testHeap(t, Config{})
	link := chainKlass(t, reg)
	a := h.NewAllocator()
	var refs []layout.Ref
	var prev layout.Ref
	for i := 1; i <= 8; i++ {
		r, err := newLink(a, link, i, prev)
		if err != nil {
			t.Fatal(err)
		}
		refs, prev = append(refs, r), r
	}
	start, size := h.geo.DataOff, link.SizeOf(0)
	frontier := func(img []byte) int {
		t.Helper()
		re, err := Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if got := re.RecoveredRegions(); len(got) == 1 && got[0].Top == start {
			return got[0].Frontier
		}
		t.Fatalf("recovered regions = %+v, want region 0 from %d", re.RecoveredRegions(), start)
		return 0
	}
	h.dev.FlushAll()
	img := h.dev.CrashImage(nvm.CrashFlushedOnly, 0)
	if got := frontier(img); got != start+8*size {
		t.Fatalf("frontier of the intact image = %d, want %d", got, start+8*size)
	}
	// One wrong word in the fourth header: the parse keeps three objects.
	fourth := h.OffOf(refs[3])
	for name, patch := range map[string]func(dev *nvm.Device){
		"older timestamp": func(dev *nvm.Device) {
			dev.WriteU64(fourth+layout.MarkWordOff, layout.MarkWord(h.GlobalTS()-1, 0))
		},
		"dangling klass word": func(dev *nvm.Device) { dev.WriteU64(fourth+layout.KlassWordOff, uint64(h.base)+8) },
	} {
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		patch(dev)
		dev.FlushAll()
		if got := frontier(dev.CrashImage(nvm.CrashFlushedOnly, 0)); got != start+3*size {
			t.Fatalf("%s in the fourth header: frontier %d, want %d", name, got, start+3*size)
		}
	}
	// An array whose length does not fit the region ends the parse too,
	// however the multiplication wraps.
	arr := reg.PrimArray(layout.FTLong)
	r, err := a.Alloc(arr, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.dev.FlushAll()
	for _, n := range []uint64{layout.RegionSize, 1 << 61, 1<<64 - 1} {
		dev := nvm.FromImage(h.dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
		dev.WriteU64(h.OffOf(r)+layout.ArrayLenOff, n)
		dev.FlushAll()
		if got := frontier(dev.CrashImage(nvm.CrashFlushedOnly, 0)); got != h.OffOf(r) {
			t.Fatalf("array of length %d: frontier %d, want %d", n, got, h.OffOf(r))
		}
	}
	// The whole region under the next epoch: nothing validates, and the
	// region — opened, empty — is left as it was for the dispenser.
	h.SetGCState(h.GlobalTS()+1, false)
	re, err := Load(nvm.FromImage(h.dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.RecoveredRegions(); len(got) != 1 || got[0].Frontier != start || re.RegionTop(0) != start || re.UsedBytes() != 0 {
		t.Fatalf("stale region under a new epoch: recovered %+v, top %d, used %d", got, re.RegionTop(0), re.UsedBytes())
	}
}

// TestEpochPersistTopsMakesReloadExact: after PersistTops the table is the
// truth — a reload validates nothing above any top and reads no object
// header to find a frontier.
func TestEpochPersistTopsMakesReloadExact(t *testing.T) {
	h, reg := testHeap(t, Config{})
	link := chainKlass(t, reg)
	a, b := h.NewAllocator(), h.NewAllocator()
	for i := 1; i <= 100; i++ {
		for _, x := range []*Allocator{a, b} {
			if _, err := newLink(x, link, i, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := h.dev.Stats()
	h.PersistTops()
	if d := h.dev.Stats().Sub(before); d.FlushedLines != 2 || d.Fences != 1 {
		t.Fatalf("PersistTops over two open PLABs: %d lines / %d fences, want 2 / 1", d.FlushedLines, d.Fences)
	}
	h.PersistTops()
	if d := h.dev.Stats().Sub(before); d.FlushedLines != 2 || d.Fences != 1 {
		t.Fatalf("a second PersistTops wrote again: %d lines / %d fences in total", d.FlushedLines, d.Fences)
	}
	re, err := Load(nvm.FromImage(h.dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range re.RecoveredRegions() {
		if rr.Frontier != rr.Top {
			t.Fatalf("region %d: %d bytes validated above an exact top", rr.Region, rr.Frontier-rr.Top)
		}
	}
	if got, want := re.UsedBytes(), 2*layout.RegionSize; got != want {
		t.Fatalf("reload uses %d bytes, want the two sealed regions' %d", got, want)
	}
}

// TestEpochVolatileTopUnderConcurrentWalks runs heap walks against two
// bumping allocators (run it under -race): the walkers see the volatile
// top, which only ever covers persisted, whole objects, and the persisted
// top of neither region moves.
func TestEpochVolatileTopUnderConcurrentWalks(t *testing.T) {
	h, reg := testHeap(t, Config{Mode: nvm.Direct})
	link := chainKlass(t, reg)
	const perMutator = 3000
	var mutators, walker sync.WaitGroup
	stop := make(chan struct{})
	for m := 0; m < 2; m++ {
		a := h.NewAllocator()
		mutators.Add(1)
		go func() {
			defer mutators.Done()
			for i := 1; i <= perMutator; i++ {
				if _, err := newLink(a, link, i, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	walker.Add(1)
	go func() {
		defer walker.Done()
		for {
			seen := 0
			if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
				if k.Name == "epoch/Link" {
					if id := h.GetWord(h.AddrOf(off), layout.FieldOff(0)); h.GetWord(h.AddrOf(off), layout.FieldOff(1)) != linkCheck+id {
						t.Errorf("walk saw half a link at %d", off)
					}
					seen++
				}
				return true
			}); err != nil {
				t.Error(err)
			}
			if used := h.UsedBytes(); used < seen*link.SizeOf(0) {
				t.Errorf("UsedBytes %d below the %d links a walk just saw", used, seen)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	mutators.Wait()
	close(stop)
	walker.Wait()
	for r := 0; r < 2; r++ {
		if got, want := int(h.dev.ReadU64(h.RegionTopMetaOff(r))), h.geo.DataOff+r*layout.RegionSize; got != want {
			t.Errorf("region %d: persisted top %d, want the opened mark %d", r, got, want)
		}
	}
}
