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

// The test graph class: Node { id long; next ref; other ref }.
const (
	fID    = 0
	fNext  = 1
	fOther = 2
)

func nodeKlass(reg *klass.Registry) *klass.Klass {
	k, err := reg.Define(klass.MustInstance("Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef, RefKlass: "Node"},
		klass.Field{Name: "other", Type: layout.FTRef, RefKlass: "Node"},
	))
	if err != nil {
		panic(err)
	}
	return k
}

// model describes the intended object graph by stable node ids.
type model struct {
	next  map[uint64]uint64 // id → id of next (0 = null)
	other map[uint64]uint64
	roots map[string]uint64 // root name → id
}

// buildGraph allocates n nodes with random links and nRoots named roots,
// deterministically from seed. Unrooted subgraphs become garbage.
func buildGraph(t testing.TB, h *pheap.Heap, reg *klass.Registry, seed int64, n, nRoots int) *model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	node := nodeKlass(reg)
	refs := make([]layout.Ref, n)
	m := &model{next: map[uint64]uint64{}, other: map[uint64]uint64{}, roots: map[string]uint64{}}
	for i := range refs {
		ref, err := h.Alloc(node, 0)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
		h.SetWord(ref, layout.FieldOff(fID), uint64(i+1))
	}
	link := func(from int, field int, tgt map[uint64]uint64) {
		to := rng.Intn(n + 1) // n means null
		var toRef layout.Ref
		var toID uint64
		if to < n {
			toRef = refs[to]
			toID = uint64(to + 1)
		}
		h.SetWord(refs[from], layout.FieldOff(field), uint64(toRef))
		tgt[uint64(from+1)] = toID
	}
	for i := 0; i < n; i++ {
		link(i, fNext, m.next)
		link(i, fOther, m.other)
	}
	for r := 0; r < nRoots; r++ {
		i := rng.Intn(n)
		name := fmt.Sprintf("root%d", r)
		if err := h.SetRoot(name, refs[i]); err != nil {
			t.Fatal(err)
		}
		m.roots[name] = uint64(i + 1)
	}
	// Persist object payloads the way an application would before relying
	// on them across a crash.
	h.Device().Flush(h.Geo().DataOff, h.Top()-h.Geo().DataOff)
	h.Device().Fence()
	return m
}

// reachable computes the ids reachable from the model's roots.
func (m *model) reachable() map[uint64]bool {
	seen := map[uint64]bool{}
	var visit func(id uint64)
	visit = func(id uint64) {
		if id == 0 || seen[id] {
			return
		}
		seen[id] = true
		visit(m.next[id])
		visit(m.other[id])
	}
	for _, id := range m.roots {
		visit(id)
	}
	return seen
}

// verifyGraph checks that the heap's reachable graph matches the model
// exactly: same roots, same edges, same reachable node count, and that the
// whole heap below top parses.
func verifyGraph(t testing.TB, h *pheap.Heap, m *model) {
	t.Helper()
	idOf := func(ref layout.Ref) uint64 {
		if ref == layout.NullRef {
			return 0
		}
		return h.GetWord(ref, layout.FieldOff(fID))
	}
	seen := map[uint64]bool{}
	var stack []layout.Ref
	for name, wantID := range m.roots {
		ref, ok := h.GetRoot(name)
		if !ok {
			t.Fatalf("root %s missing", name)
		}
		if got := idOf(ref); got != wantID {
			t.Fatalf("root %s points at node %d, want %d", name, got, wantID)
		}
		stack = append(stack, ref)
	}
	for len(stack) > 0 {
		ref := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := idOf(ref)
		if seen[id] {
			continue
		}
		seen[id] = true
		k, err := h.KlassOf(ref)
		if err != nil || k.Name != "Node" {
			t.Fatalf("node %d: klass %v err %v", id, k, err)
		}
		next := layout.Ref(h.GetWord(ref, layout.FieldOff(fNext)))
		other := layout.Ref(h.GetWord(ref, layout.FieldOff(fOther)))
		if got := idOf(next); got != m.next[id] {
			t.Fatalf("node %d: next = %d, want %d", id, got, m.next[id])
		}
		if got := idOf(other); got != m.other[id] {
			t.Fatalf("node %d: other = %d, want %d", id, got, m.other[id])
		}
		if next != 0 && !seen[idOf(next)] {
			stack = append(stack, next)
		}
		if other != 0 && !seen[idOf(other)] {
			stack = append(stack, other)
		}
	}
	want := m.reachable()
	if len(seen) != len(want) {
		t.Fatalf("reachable %d nodes, want %d", len(seen), len(want))
	}
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("post-GC heap does not parse: %v", err)
	}
}

func newHeap(t testing.TB, dataSize int) (*pheap.Heap, *klass.Registry) {
	t.Helper()
	reg := klass.NewRegistry()
	h, err := pheap.Create(reg, pheap.Config{DataSize: dataSize, Mode: nvm.Tracked})
	if err != nil {
		t.Fatal(err)
	}
	return h, reg
}

func TestCollectPreservesGraphAndReclaims(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 42, 500, 5)
	freeBefore := h.FreeBytes()
	res, err := Collect(h, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != len(m.reachable()) {
		t.Fatalf("live = %d, want %d", res.LiveObjects, len(m.reachable()))
	}
	if h.FreeBytes() < freeBefore {
		t.Fatalf("no space reclaimed: free %d → %d", freeBefore, h.FreeBytes())
	}
	if h.GCActive() {
		t.Fatal("gcActive left set")
	}
	verifyGraph(t, h, m)
}

func TestCollectEmptyHeap(t *testing.T) {
	h, _ := newHeap(t, 1<<20)
	res, err := Collect(h, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 0 || h.Top() != h.Geo().DataOff {
		t.Fatalf("empty collect: %+v top=%d", res, h.Top())
	}
}

func TestCollectAllGarbage(t *testing.T) {
	h, reg := newHeap(t, 2<<20)
	node := nodeKlass(reg)
	for i := 0; i < 1000; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Collect(h, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 0 {
		t.Fatalf("live = %d, want 0", res.LiveObjects)
	}
	if h.Top() != h.Geo().DataOff {
		t.Fatalf("top = %d, want reset to %d", h.Top(), h.Geo().DataOff)
	}
	// Space is reusable.
	if _, err := h.Alloc(node, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryIdempotent(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	buildGarbageBelt(t, h, reg, 150) // past the dead-wood budget: real moves
	buildGraph(t, h, reg, 7, 300, 4)
	if _, err := mark(h, NoRoots{}, 1); err != nil {
		t.Fatal(err)
	}
	h.MarkBitmap().Persist()
	s1, err := Summarize(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Summarize(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Moves) != len(s2.Moves) || s1.NewTop != s2.NewTop {
		t.Fatalf("summary not deterministic: %d/%d moves, top %d/%d",
			len(s1.Moves), len(s2.Moves), s1.NewTop, s2.NewTop)
	}
	for i := range s1.Moves {
		if s1.Moves[i] != s2.Moves[i] {
			t.Fatalf("move %d differs: %+v vs %+v", i, s1.Moves[i], s2.Moves[i])
		}
	}
}

func TestSummaryInvariants(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	buildGarbageBelt(t, h, reg, 200) // past the dead-wood budget: real moves
	buildGraph(t, h, reg, 11, 400, 3)
	if _, err := mark(h, NoRoots{}, 1); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, mv := range s.Moves {
		if mv.Dst != mv.Src {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no evacuations; the invariants below are vacuous")
	}
	destOverlap := map[int]int{} // dst offset → size (check non-overlap)
	for i, mv := range s.Moves {
		if i > 0 && mv.Src <= s.Moves[i-1].Src {
			t.Fatal("moves not ascending by src")
		}
		srcRegion := (mv.Src - h.Geo().DataOff) / layout.RegionSize
		dstRegion := (mv.Dst - h.Geo().DataOff) / layout.RegionSize
		if mv.Dst != mv.Src && srcRegion == dstRegion {
			t.Fatalf("move %d: destination in its own source region", i)
		}
		destOverlap[mv.Dst] = mv.Size
	}
	// Destinations must not overlap.
	prevEnd := -1
	for _, mv := range sortedByDst(s.Moves) {
		if mv.Dst < prevEnd {
			t.Fatalf("overlapping destinations at %d", mv.Dst)
		}
		prevEnd = mv.Dst + mv.Size
	}
	_ = destOverlap
}

func sortedByDst(moves []Move) []Move {
	out := append([]Move(nil), moves...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Dst < out[j-1].Dst; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestRepeatedCollections(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 13, 400, 4)
	for i := 0; i < 4; i++ {
		if _, err := Collect(h, NoRoots{}); err != nil {
			t.Fatalf("collection %d: %v", i, err)
		}
		verifyGraph(t, h, m)
	}
}

// The move list, a cycle's one buffer the size of the live set, is
// allocated by a heap's first collection and reused by the next ones.
func TestCollectionsReuseTheMoveList(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 19, 400, 4)
	array := func() *Move {
		t.Helper()
		ms, _ := (*h.CollectorScratch()).(*[]Move)
		if ms == nil || cap(*ms) == 0 {
			t.Fatal("no move list kept")
		}
		return &(*ms)[:1][0]
	}
	if _, err := Collect(h, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	first := array()
	for i := 0; i < 3; i++ {
		if _, err := Collect(h, NoRoots{}); err != nil {
			t.Fatalf("collection %d: %v", i, err)
		}
		if array() != first {
			t.Fatalf("collection %d allocated a new move list", i)
		}
		verifyGraph(t, h, m)
	}
}

func TestAllocateAfterCollect(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 17, 300, 3)
	if _, err := Collect(h, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	node := reg.MustLookup("Node")
	for i := 0; i < 200; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	verifyGraph(t, h, m)
	if _, err := Collect(h, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	verifyGraph(t, h, m)
}

// sliceRooter exposes a DRAM slot slice as GC roots.
type sliceRooter struct{ slots []layout.Ref }

func (r *sliceRooter) Roots(visit func(layout.Ref)) {
	for _, s := range r.slots {
		visit(s)
	}
}

func (r *sliceRooter) UpdateRoots(fwd func(layout.Ref) layout.Ref) {
	for i, s := range r.slots {
		r.slots[i] = fwd(s)
	}
}

func TestExternalRootsKeepAliveAndGetUpdated(t *testing.T) {
	h, reg := newHeap(t, 2<<20)
	node := nodeKlass(reg)
	// Garbage in front so live objects must move.
	for i := 0; i < 100; i++ {
		if _, err := h.Alloc(node, 0); err != nil {
			t.Fatal(err)
		}
	}
	ref, _ := h.Alloc(node, 0)
	h.SetWord(ref, layout.FieldOff(fID), 777)
	h.FlushRange(ref, 0, node.SizeOf(0))
	ext := &sliceRooter{slots: []layout.Ref{ref}}
	res, err := Collect(h, ext)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != 1 {
		t.Fatalf("live = %d, want 1 (external root)", res.LiveObjects)
	}
	if ext.slots[0] == ref {
		t.Fatal("external slot not forwarded (object should have moved)")
	}
	if got := h.GetWord(ext.slots[0], layout.FieldOff(fID)); got != 777 {
		t.Fatalf("payload after move = %d", got)
	}
}

func TestHumongousPinnedByGC(t *testing.T) {
	h, reg := newHeap(t, 8<<20)
	node := nodeKlass(reg)
	// garbage, then a humongous array, then more garbage
	for i := 0; i < 50; i++ {
		h.Alloc(node, 0)
	}
	huge, err := h.Alloc(reg.PrimArray(layout.FTLong), pheap.HugeThreshold/8+100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		h.Alloc(node, 0)
	}
	keep, _ := h.Alloc(node, 0)
	h.SetRoot("huge", huge)
	h.SetRoot("keep", keep)
	h.Device().FlushAll()
	if _, err := Collect(h, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	got, _ := h.GetRoot("huge")
	if got != huge {
		t.Fatalf("humongous object moved: %#x → %#x", uint64(huge), uint64(got))
	}
	if err := h.ForEachObject(func(int, *klass.Klass, int) bool { return true }); err != nil {
		t.Fatalf("heap with pinned object does not parse: %v", err)
	}
}

func TestRecoverNoopOnCleanHeap(t *testing.T) {
	h, _ := newHeap(t, 1<<20)
	res, ran, err := RecoverIfNeeded(h)
	if err != nil || ran || res.Recovered {
		t.Fatalf("recover on clean heap: ran %v, %+v %v", ran, res, err)
	}
}

// TestCrashDuringGCAtEveryFlush is the central crash-consistency test:
// build a graph, start a collection, crash it at the k-th device flush for
// every k, reload the image, run recovery, and verify the object graph is
// bit-for-bit intact. The crash image keeps a random subset of unflushed
// lines (CrashRandomEviction) to model arbitrary cache eviction.
func TestCrashDuringGCAtEveryFlush(t *testing.T) {
	const seed = 99
	// First, a clean run to count flushes. The garbage belt keeps the
	// workload past the dead-wood budget so the sweep crosses the full
	// evacuation protocol, not just fixes and fillers.
	h0, reg0 := newHeap(t, 2<<20)
	buildGarbageBelt(t, h0, reg0, 120)
	m := buildGraph(t, h0, reg0, seed, 120, 4)
	base := h0.Device().Stats().Flushes
	if res, err := Collect(h0, NoRoots{}); err != nil {
		t.Fatal(err)
	} else if res.MovedObjects == 0 {
		t.Fatal("workload compacted nothing; the sweep misses the move protocol")
	}
	totalFlushes := h0.Device().Stats().Flushes - base
	if totalFlushes < 20 {
		t.Fatalf("suspiciously few flushes in a full GC: %d", totalFlushes)
	}

	// Snapshot a pristine pre-GC image to restart from each iteration.
	hSnap, regSnap := newHeap(t, 2<<20)
	buildGarbageBelt(t, hSnap, regSnap, 120)
	buildGraph(t, hSnap, regSnap, seed, 120, 4)
	hSnap.Device().FlushAll()
	pristine := hSnap.Device().CrashImage(nvm.CrashFlushedOnly, 0)

	step := uint64(1)
	if totalFlushes > 400 {
		step = totalFlushes / 400
	}
	for k := uint64(1); k <= totalFlushes; k += step {
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

		// Power loss: arbitrary subset of dirty lines survives.
		after := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
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
		if !crashed {
			break // k beyond the GC's flush count: clean finish
		}
	}
}

// TestCrashDuringRecoveryItself crashes recovery at several points and
// re-recovers; recovery must be idempotent.
func TestCrashDuringRecoveryItself(t *testing.T) {
	const seed = 123
	// Build and crash a GC mid-compact: two flushes after the stamp, with
	// a belt below the graph so that recovery has moves to redo.
	h, reg := newHeap(t, 2<<20)
	buildGarbageBelt(t, h, reg, 120)
	m := buildGraph(t, h, reg, seed, 100, 3)
	faultdev.CrashWhen(h.Device(), 2, h.GCActive)
	if crashed, err := faultdev.Run(h.Device(), func() error {
		_, err := Collect(h, NoRoots{})
		return err
	}); err != nil || !crashed {
		t.Fatalf("collection crashed = %v, err = %v; want a crash mid-compaction", crashed, err)
	}
	crashImg := h.Device().CrashImage(nvm.CrashRandomEviction, 1)
	if re, err := pheap.Load(nvm.FromImage(append([]byte(nil), crashImg...), nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry()); err != nil || !re.GCActive() {
		t.Fatalf("the crash image is not mid-collection (err %v); the sweep below would recover nothing", err)
	}

	for k := uint64(1); k < 60; k += 3 {
		img := make([]byte, len(crashImg))
		copy(img, crashImg)
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h2, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: load: %v", k, err)
		}
		faultdev.CrashIn(dev, k)
		if _, err := faultdev.Run(dev, func() error {
			_, _, err := RecoverIfNeeded(h2)
			return err
		}); err != nil {
			t.Fatalf("k=%d: recover: %v", k, err)
		}

		dev2 := nvm.FromImage(dev.CrashImage(nvm.CrashRandomEviction, int64(k)), nvm.Config{Mode: nvm.Tracked})
		h3, err := pheap.Load(dev2, klass.NewRegistry())
		if err != nil {
			t.Fatalf("k=%d: second load: %v", k, err)
		}
		if _, _, err := RecoverIfNeeded(h3); err != nil {
			t.Fatalf("k=%d: second recover: %v", k, err)
		}
		verifyGraph(t, h3, m)
	}
}

func TestGCFlushOverheadMeasurable(t *testing.T) {
	// The §6.4 experiment's mechanism: the same GC with flushes disabled
	// performs the same moves but writes back no lines.
	build := func() *pheap.Heap {
		h, reg := newHeap(t, 4<<20)
		buildGraph(t, h, reg, 5, 2000, 6)
		return h
	}
	h1 := build()
	r1, err := Collect(h1, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	h2 := build()
	h2.Device().SetNoFlush(true)
	r2, err := Collect(h2, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MovedObjects != r2.MovedObjects {
		t.Fatalf("flush mode changed the algorithm: %d vs %d moves", r1.MovedObjects, r2.MovedObjects)
	}
	if r1.DeviceStats.FlushedLines == 0 || r2.DeviceStats.FlushedLines != 0 {
		t.Fatalf("flushed lines: with=%d without=%d", r1.DeviceStats.FlushedLines, r2.DeviceStats.FlushedLines)
	}
}

// summarizeMarks runs the summary phase over a hand-drawn mark bitmap —
// the phase reads nothing else — given as (offset from the data area's
// start, size) pairs in ascending order.
func summarizeMarks(t *testing.T, objs [][2]int) (*Summary, pheap.Geometry) {
	t.Helper()
	h, reg := newHeap(t, 16<<20)
	// One allocation that raises the top past every drawn object.
	if _, err := h.Alloc(reg.PrimArray(layout.FTLong), 13*layout.RegionSize/8); err != nil {
		t.Fatal(err)
	}
	bm := h.MarkBitmap()
	bm.ClearAll()
	for _, o := range objs {
		bm.Set(o[0] / layout.WordSize)
		bm.Set((o[0]+o[1])/layout.WordSize - 1)
	}
	s, err := Summarize(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, h.Geo()
}

// checkDestinations requires what the source-as-undo-log protocol rests
// on: no two objects end up on the same bytes, and no evacuated object
// straddles a region boundary.
func checkDestinations(t *testing.T, s *Summary, geo pheap.Geometry) {
	t.Helper()
	moved, prevEnd := 0, -1
	for _, mv := range sortedByDst(s.Moves) {
		if mv.Dst < prevEnd {
			t.Fatalf("object from %d lands on %d, inside the object ending at %d", mv.Src, mv.Dst, prevEnd)
		}
		prevEnd = mv.Dst + mv.Size
		if mv.Dst == mv.Src {
			continue
		}
		moved++
		if (mv.Dst-geo.DataOff)/layout.RegionSize != (mv.Dst+mv.Size-1-geo.DataOff)/layout.RegionSize {
			t.Fatalf("object from %d evacuated to [%d,%d), across a region boundary", mv.Src, mv.Dst, mv.Dst+mv.Size)
		}
	}
	if moved == 0 {
		t.Fatal("nothing evacuated; the checks above are vacuous")
	}
}

// TestSummaryTailShorterThanObject: the space behind an in-place prefix
// is offered as a destination even when it is 16 bytes long; a 32-byte
// object must pass it by, not run over into the next region.
func TestSummaryTailShorterThanObject(t *testing.T) {
	const R = layout.RegionSize
	objs := [][2]int{{0, R / 4}, {R / 4, R / 4}, {R / 2, R / 4}, {3 * R / 4, R/4 - 16}} // region 0, dense
	for i := 0; i < 64; i++ {                                                           // region 1 is garbage; region 2:
		objs = append(objs, [2]int{2*R + 32*i, 32})
	}
	s, geo := summarizeMarks(t, objs)
	checkDestinations(t, s, geo)
}

// TestSummaryObjectsBehindPinnedHumongousTail: an earlier collection
// packed small objects behind a pinned humongous object's tail. When
// they are evacuated to lower space, the tail must enter the destination
// pool once, not once for the humongous object and again for the last of
// them.
func TestSummaryObjectsBehindPinnedHumongousTail(t *testing.T) {
	const R = layout.RegionSize
	objs := [][2]int{{0, R / 4}, {R / 4, R / 4}, {R / 2, R / 4}, {3 * R / 4, R / 4}} // region 0, dense
	objs = append(objs, [2]int{5 * R, R + R/2})                                      // regions 1–4 garbage; humongous on 5–6
	for i := 0; i < 4; i++ {
		objs = append(objs, [2]int{6*R + R/2 + 32*i, 32}) // behind its tail
	}
	for off := 7 * R; off < 12*R; off += 32 { // five full regions above: more than regions 1–4 and one tail hold
		objs = append(objs, [2]int{off, 32})
	}
	s, geo := summarizeMarks(t, objs)
	checkDestinations(t, s, geo)
}
