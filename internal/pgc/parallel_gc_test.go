package pgc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pgc/marker"
	"espresso/internal/pheap"
)

// buildGarbageBelt allocates g unrooted nodes before anything else — a
// concentrated block of dead wood at the bottom of the heap. Scattered
// garbage in a buildGraph workload (~25%) stays under the summary's
// dense-prefix budget (1/3) and is handled in place, so tests that need
// the evacuation and reference-fix machinery exercised lay a belt first:
// cumulative garbage then exceeds the budget at the first live object
// and everything above the belt moves.
func buildGarbageBelt(t testing.TB, h *pheap.Heap, reg *klass.Registry, g int) {
	t.Helper()
	node := nodeKlass(reg)
	for i := 0; i < g; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// runMark clears the bitmaps and runs one full parallel marking pass
// over the quiescent heap — the marker driven the way Collect drives it,
// minus summary and compaction.
func runMark(t *testing.T, h *pheap.Heap, workers int) *marker.Marker {
	t.Helper()
	h.PrepareForCollection()
	h.MarkBitmap().ClearAll()
	h.RegionBitmap().ClearAll()
	mk := marker.NewMarker(h, workers)
	if err := mk.MarkRoots(heapRoots(h, NoRoots{})); err != nil {
		t.Fatalf("mark (workers=%d): %v", workers, err)
	}
	return mk
}

// TestSummaryDeadWoodBudget pins the dense-prefix policy: garbage whose
// cumulative share of the prefix stays within 1/deadWoodDenominator is
// absorbed as dead wood (no evacuation, gaps plugged with fillers and —
// when line-sized — recycled as holes), while a concentrated belt that
// exceeds the budget forces everything above it to slide. Both outcomes
// must be pure functions of the bitmap: a second collection finds
// nothing left to do.
func TestSummaryDeadWoodBudget(t *testing.T) {
	// Light, scattered garbage: drop every 9th node from the chain
	// (~11% dead, under the 1/3 budget) — everything stays put.
	h, reg := newHeap(t, 2<<20)
	node := nodeKlass(reg)
	var head layout.Ref
	var headID uint64
	m := &model{next: map[uint64]uint64{}, other: map[uint64]uint64{}, roots: map[string]uint64{}}
	live := 0
	for i := 0; i < 270; i++ {
		ref, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i%9 == 0 {
			continue // unrooted: dead wood
		}
		id := uint64(i + 1)
		h.SetWord(ref, layout.FieldOff(fID), id)
		h.SetWord(ref, layout.FieldOff(fNext), uint64(head))
		m.next[id] = headID
		head, headID = ref, id
		live++
	}
	if err := h.SetRoot("head", head); err != nil {
		t.Fatal(err)
	}
	m.roots["head"] = headID
	h.Device().Flush(h.Geo().DataOff, h.Top()-h.Geo().DataOff)
	h.Device().Fence()
	top := h.Top()
	res, err := Collect(h, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != live || res.MovedObjects != 0 {
		t.Fatalf("light garbage: live %d moved %d, want %d moved 0 (dead wood evacuated?)",
			res.LiveObjects, res.MovedObjects, live)
	}
	if res.NewTop != top {
		t.Fatalf("light garbage: top slid %d → %d despite in-place summary", top, res.NewTop)
	}
	verifyGraph(t, h, m)
	// The dead nodes' slots must now parse as fillers.
	fillerBytes := 0
	if err := h.ForEachObject(func(off int, k *klass.Klass, size int) bool {
		if pheap.IsFiller(k) {
			fillerBytes += size
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := (270 - live) * node.SizeOf(0); fillerBytes != want {
		t.Fatalf("light garbage: %d filler bytes, want %d (interior gaps unplugged)", fillerBytes, want)
	}
	if res2, err := Collect(h, NoRoots{}); err != nil || res2.MovedObjects != 0 || res2.LiveObjects != live {
		t.Fatalf("second collection not a fixpoint: %+v %v", res2, err)
	}

	// Heavy, concentrated garbage: a belt over the budget evacuates
	// every live object.
	h2, reg2 := newHeap(t, 2<<20)
	buildGarbageBelt(t, h2, reg2, 200)
	m2 := buildGraph(t, h2, reg2, 5, 100, 3)
	want2 := len(m2.reachable())
	res, err = Collect(h2, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != want2 || res.MovedObjects != want2 {
		t.Fatalf("belt: live %d moved %d, want all %d moved", res.LiveObjects, res.MovedObjects, want2)
	}
	verifyGraph(t, h2, m2)
}

// TestParallelMarkTerminationDeepChain is the deterministic termination
// test for the work-stealing barrier's hardest shape: a single deep
// chain holds exactly one gray object at any moment, so only the worker
// owning it ever has work — the other workers must spin through failed
// steals, park in the idle barrier, and the pool
// must still quiesce with every object marked exactly once. If the
// barrier exited early (idle count racing the owner's pushes) the counts
// would come up short; if claiming raced, the per-worker counts would
// sum past the chain length. Marking repeatedly must reproduce the same
// totals — the bitmap claim makes the trace deterministic even though
// the idle/steal interleaving is not.
func TestParallelMarkTerminationDeepChain(t *testing.T) {
	const n = 3000
	h, reg := newHeap(t, 4<<20)
	node := nodeKlass(reg)
	size := node.SizeOf(0)
	refs := make([]layout.Ref, n)
	var head layout.Ref
	for i := 0; i < n; i++ {
		ref, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.SetWord(ref, layout.FieldOff(fID), uint64(i+1))
		h.SetWord(ref, layout.FieldOff(fNext), uint64(head))
		refs[i] = ref
		head = ref
	}
	if err := h.SetRoot("head", head); err != nil {
		t.Fatal(err)
	}
	h.Device().Flush(h.Geo().DataOff, h.Top()-h.Geo().DataOff)
	h.Device().Fence()

	dataOff := h.Geo().DataOff
	for round := 0; round < 3; round++ {
		mk := runMark(t, h, 4)
		objs, bs := mk.Counts()
		if objs != n || bs != n*size {
			t.Fatalf("round %d: counted %d objects / %d bytes, want %d / %d",
				round, objs, bs, n, n*size)
		}
		sum := 0
		for _, c := range mk.WorkerObjectCounts() {
			sum += c
		}
		if sum != n {
			t.Fatalf("round %d: per-worker counts sum to %d, want %d (an object was claimed twice or dropped)",
				round, sum, n)
		}
		bm := h.MarkBitmap()
		for i, ref := range refs {
			if !bm.Get((h.OffOf(ref) - dataOff) / layout.WordSize) {
				t.Fatalf("round %d: node %d unmarked after termination", round, i+1)
			}
		}
	}
}

// TestParallelMarkCountsWideGraph: the steal-heavy counterpart — a wide
// random graph keeps every deque busy, so the claim CAS is what prevents
// double counting. The per-worker counts must sum to exactly the model's
// reachable set for any worker count.
func TestParallelMarkCountsWideGraph(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 31, 1500, 8)
	want := len(m.reachable())
	for _, workers := range []int{1, 2, 4, 8} {
		mk := runMark(t, h, workers)
		objs, _ := mk.Counts()
		sum := 0
		for _, c := range mk.WorkerObjectCounts() {
			sum += c
		}
		if objs != want || sum != want {
			t.Fatalf("workers=%d: counted %d (per-worker sum %d), want %d",
				workers, objs, sum, want)
		}
	}
}

// TestCollectParallelWorkersByteIdentical is the worker-count
// differential oracle: Collect marks on GOMAXPROCS workers and compacts
// on one, so on a quiescent heap every GOMAXPROCS must produce the same
// heap image bit for bit — marking publishes idempotent bitmap bits and
// the summary is a pure function of the bitmap — and the same flushes in
// the same order: the crash sweeps that crash Collect at its k-th flush
// depend on that.
func TestCollectParallelWorkersByteIdentical(t *testing.T) {
	// A large graph with scattered garbage spans three regions, so the
	// fill pass writes fillers in several; the belt above it makes the
	// graph above the belt move.
	build := func() *pheap.Heap {
		h, reg := newHeap(t, 4<<20)
		buildGraph(t, h, reg, 76, 12000, 12)
		buildGarbageBelt(t, h, reg, 6000)
		buildGraph(t, h, reg, 77, 600, 6)
		return h
	}
	sameImage := func(what string, a, b *pheap.Heap) {
		t.Helper()
		geo := a.Geo()
		for _, sec := range []struct {
			name   string
			off, n int
		}{
			{"data area", geo.DataOff, geo.DataSize},
			{"region-top table", geo.RegionTopOff, geo.RegionTopSize},
			{"name table", geo.NameTabOff, geo.NameTabCap * 64},
			{"mark bitmap", geo.MarkBmpOff, geo.MarkBmpSize},
		} {
			x, y := a.Device().View(sec.off, sec.n), b.Device().View(sec.off, sec.n)
			if !bytes.Equal(x, y) {
				for i := range x {
					if x[i] != y[i] {
						t.Fatalf("%s: %s differs at byte %d (abs %d): %#x vs %#x",
							what, sec.name, i, sec.off+i, x[i], y[i])
					}
				}
			}
		}
	}
	sameResult := func(what string, a, b Result) {
		t.Helper()
		if a.LiveObjects != b.LiveObjects || a.LiveBytes != b.LiveBytes ||
			a.MovedObjects != b.MovedObjects || a.NewTop != b.NewTop {
			t.Fatalf("%s: results differ: %+v vs %+v", what, a, b)
		}
	}

	type flush struct{ off, n int }
	collect := func(procs int) (*pheap.Heap, Result, []flush) {
		h := build()
		var flushes []flush
		h.Device().SetFlushFault(func(off, n int, _ uint64) bool {
			flushes = append(flushes, flush{off, n})
			return false
		})
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := Collect(h, NoRoots{})
		if err != nil {
			t.Fatalf("Collect at GOMAXPROCS %d: %v", procs, err)
		}
		h.Device().SetFlushFault(nil)
		if len(r.MarkWorkerStats) != procs {
			t.Fatalf("Collect at GOMAXPROCS %d marked on %d workers", procs, len(r.MarkWorkerStats))
		}
		return h, r, flushes
	}
	hS, rS, fS := collect(1)
	if rS.MovedObjects == 0 {
		t.Fatal("workload compacted nothing; the fix pass is untested")
	}
	for _, procs := range []int{2, 4, 8} {
		h, r, f := collect(procs)
		what := fmt.Sprintf("Collect at GOMAXPROCS %d", procs)
		sameResult(what, rS, r)
		sameImage(what, hS, h)
		if len(f) != len(fS) {
			t.Fatalf("%s: %d flushes, %d at GOMAXPROCS 1", what, len(f), len(fS))
		}
		for i := range f {
			if f[i] != fS[i] {
				t.Fatalf("%s: flush %d is [%d,+%d), at GOMAXPROCS 1 [%d,+%d)",
					what, i+1, f[i].off, f[i].n, fS[i].off, fS[i].n)
			}
		}
	}
}

// TestParallelMarkSharesAChainOffAFanOut runs four mark workers on one
// P, so they interleave only where they yield, over a wide fan-out — a
// root array of short lists — with one long chain hung off its last
// slot. The fan-out is what the busy worker shares once the others go
// idle; the chain stays on whichever stack reaches it. Each object must
// be counted by exactly one worker, and the fan-out must have been
// spread over more than one.
func TestParallelMarkSharesAChainOffAFanOut(t *testing.T) {
	const (
		fanOut   = 1000
		shortLen = 3
		chainLen = 3000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	h, reg := newHeap(t, 4<<20)
	node := nodeKlass(reg)
	arr, err := h.Alloc(reg.ObjArray("Node"), fanOut)
	if err != nil {
		t.Fatal(err)
	}
	list := func(n int) layout.Ref {
		var head layout.Ref
		for i := 0; i < n; i++ {
			ref, err := h.Alloc(node, 0)
			if err != nil {
				t.Fatal(err)
			}
			h.SetWord(ref, layout.FieldOff(fNext), uint64(head))
			head = ref
		}
		return head
	}
	for i := 0; i < fanOut-1; i++ {
		h.SetWord(arr, layout.ElemOff(layout.FTRef, i), uint64(list(shortLen)))
	}
	h.SetWord(arr, layout.ElemOff(layout.FTRef, fanOut-1), uint64(list(chainLen)))
	if err := h.SetRoot("fan", arr); err != nil {
		t.Fatal(err)
	}
	const live = 1 + (fanOut-1)*shortLen + chainLen

	for round := 0; round < 3; round++ {
		mk := runMark(t, h, 4)
		objs, _ := mk.Counts()
		sum, busy := 0, 0
		for _, c := range mk.WorkerObjectCounts() {
			sum += c
			if c > 0 {
				busy++
			}
		}
		mk.Release()
		if objs != live || sum != live {
			t.Fatalf("round %d: counted %d objects (per-worker sum %d), want %d", round, objs, sum, live)
		}
		if busy < 2 {
			t.Fatalf("round %d: one worker marked everything (%v); the fan-out was never shared",
				round, mk.WorkerObjectCounts())
		}
	}
}

// TestRecoverSplitFinishBatch is the single-publish regression test: the
// finish batch holds every root and every region's top entry, and
// nothing in it may become durable before the ONE RedoCommit's
// count+state flush. The test crashes a collection at every flush of the
// finish tail — redo entries written but uncommitted, the commit point
// itself, and every step of the replay — and asserts the
// all-old-or-all-new rule on the crash image: an uncommitted log must
// leave every persisted region top and root at its exact pre-GC value (a
// single leaked entry would show as a mixed table), a committed one is
// completed by load+recovery. Either way recovery must converge to the clean run's
// image, byte for byte.
func TestRecoverSplitFinishBatch(t *testing.T) {
	const seed = 58
	build := func() (*pheap.Heap, *model) {
		h, reg := newHeap(t, 2<<20)
		buildGarbageBelt(t, h, reg, 200)
		m := buildGraph(t, h, reg, seed, 150, 5)
		h.Device().FlushAll()
		return h, m
	}

	// Clean reference run — over a load of the same pristine image every
	// crashed run starts from, so the flush ordinals and the region-top
	// table line up exactly (pheap.Load seals half-open regions, which
	// already rewrites tops before any collection runs).
	h0, m := build()
	pristine := h0.Device().CrashImage(nvm.CrashFlushedOnly, 0)
	hClean, err := pheap.Load(nvm.FromImage(append([]byte(nil), pristine...), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	geo := hClean.Geo()
	preTops := make([]uint64, geo.DataRegions())
	for r := range preTops {
		preTops[r] = hClean.Device().ReadU64(hClean.RegionTopMetaOff(r))
	}
	base := hClean.Device().Stats().Flushes
	res, err := Collect(hClean, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MovedObjects == 0 {
		t.Fatal("test graph compacted nothing; the finish batch is trivial")
	}
	totalFlushes := hClean.Device().Stats().Flushes - base
	postTops := make([]uint64, geo.DataRegions())
	for r := range postTops {
		postTops[r] = hClean.Device().ReadU64(hClean.RegionTopMetaOff(r))
	}
	// finish commits one entry per root, one per data region, plus the
	// gcActive retirement; RedoCommit flushes entries then count+state,
	// RedoApply flushes each applied entry then the state retirement.
	batch := len(hClean.Roots()) + geo.DataRegions() + 1
	tail := uint64(2*batch + 8) // generous cover of commit + replay + slack
	firstK := uint64(1)
	if totalFlushes > tail {
		firstK = totalFlushes - tail
	}

	for k := firstK; k <= totalFlushes; k++ {
		img := make([]byte, len(pristine))
		copy(img, pristine)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: load pristine: %v", k, err)
		}
		faultdev.CrashIn(dev, k)
		crashed, err := faultdev.Run(dev, func() error {
			_, err := Collect(h, NoRoots{})
			return err
		})
		if err != nil {
			t.Fatalf("k=%d: collect: %v", k, err)
		}

		// Inspect the raw crash image before any recovery runs. With no
		// committed log pending, the metadata must be all-old (collection
		// still active — no top entry may have leaked) or
		// all-new (the crash fell after the log was fully replayed and
		// retired, gcActive cleared with it). Anything mixed is a
		// single-publish violation.
		after := nvm.FromImage(dev.CrashImage(nvm.CrashFlushedOnly, 0), nvm.Config{Mode: nvm.Tracked})
		if after.ReadU64(geo.RedoOff) != 1 {
			want, label := preTops, "pre-GC"
			if after.ReadU64(hClean.GCActiveMetaOff()) == 0 {
				want, label = postTops, "post-GC"
			}
			for r := range want {
				if got := after.ReadU64(hClean.RegionTopMetaOff(r)); got != want[r] {
					t.Fatalf("k=%d: region %d top %#x != %s %#x with no redo log pending (split finish batch)",
						k, r, got, label, want[r])
				}
			}
		}

		h2, err := pheap.Load(after, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: reload: %v", k, err)
		}
		if _, _, err := RecoverIfNeeded(h2); err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}
		if h2.GCActive() {
			t.Fatalf("k=%d: gcActive after recovery", k)
		}
		verifyGraph(t, h2, m)
		for r := range postTops {
			got := h2.Device().ReadU64(h2.RegionTopMetaOff(r))
			if got == postTops[r] {
				continue
			}
			// When the crash fell after the commit point, the reload
			// replayed the redo log and retired the collection before
			// RecoverIfNeeded ran — and pheap.Load then sealed the half-open last
			// region (tail plugged, top advanced to the region end). That
			// is load policy, not a finish-batch leak; only the sealed
			// variant of the clean run's partial top is acceptable.
			start := uint64(geo.DataOff + r*layout.RegionSize)
			end := start + layout.RegionSize
			if postTops[r] > start && postTops[r] < end && got == end {
				continue
			}
			t.Fatalf("k=%d: region %d top %#x != clean run's %#x after recovery",
				k, r, got, postTops[r])
		}
		// The compacted prefix must converge on the clean run's bytes
		// (above NewTop the crashed attempt may leave arbitrary junk in
		// regions the finish reset to untouched).
		a := hClean.Device().View(geo.DataOff, res.NewTop-geo.DataOff)
		b := h2.Device().View(geo.DataOff, res.NewTop-geo.DataOff)
		if !bytes.Equal(a, b) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("k=%d: compacted prefix differs from clean run at byte %d (abs %d): %#x vs %#x",
						k, i, geo.DataOff+i, a[i], b[i])
				}
			}
		}
		if !crashed {
			break
		}
	}
}

// TestReadErrorSurfacesFromPoolWorkers pins that a mark worker's loads
// consult the device's read-fault hook like any other load. A hard read
// error sits on the line of a live object only the tracers and the
// compactor ever load (the summary works from the bitmap alone); the
// collection must die of the media error in the mark phase — at every
// pool size — instead of quietly marking bytes the device said it could
// not read.
func TestReadErrorSurfacesFromPoolWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		h, reg := newHeap(t, 4<<20)
		buildGarbageBelt(t, h, reg, 200) // everything live moves
		buildGraph(t, h, reg, 11, 400, 4)
		victim, ok := h.GetRoot("root0")
		if !ok {
			t.Fatal("root0 missing")
		}
		line := h.OffOf(victim) &^ (nvm.LineSize - 1)
		in := faultdev.Install(h.Device(), faultdev.Plan{Kind: faultdev.ReadError, Off: line, N: nvm.LineSize})
		prev := runtime.GOMAXPROCS(workers)
		err := nvm.CatchMedia(func() error {
			_, err := Collect(h, NoRoots{})
			return err
		})
		runtime.GOMAXPROCS(prev)
		in.Remove()
		var me *nvm.MediaError
		if !errors.As(err, &me) {
			t.Fatalf("%d workers: collection over an unreadable live line returned %v, want a media error", workers, err)
		}
		if me.Off >= line+nvm.LineSize || me.Off+me.N <= line {
			t.Fatalf("%d workers: media error at [%d,%d), fault planted at line %d", workers, me.Off, me.Off+me.N, line)
		}
		if in.Fired() == 0 {
			t.Fatalf("%d workers: fault never delivered", workers)
		}
		// The victim is a root, so the tracers load it first; the heap is
		// stamped mid-collection only after marking.
		if h.GCActive() {
			t.Fatalf("%d workers: the error surfaced only after marking — the tracers read the line without noticing", workers)
		}
	}
}
