package pgc

import (
	"bytes"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
)

// TestCollectConcurrentPreservesGraph is the concurrent collector's
// counterpart of the basic STW test: same reclamation, same reachable
// graph, clean final state (gcActive and the phase word both clear).
func TestCollectConcurrentPreservesGraph(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 42, 500, 5)
	res, err := CollectConcurrent(h, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveObjects != len(m.reachable()) {
		t.Fatalf("live = %d, want %d", res.LiveObjects, len(m.reachable()))
	}
	if h.GCActive() {
		t.Fatal("gcActive left set")
	}
	if h.GCPhase() != pheap.GCPhaseIdle {
		t.Fatalf("phase word left at %d", h.GCPhase())
	}
	verifyGraph(t, h, m)
}

func TestCollectConcurrentRepeatedAndAllocateBetween(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 13, 400, 4)
	node := reg.MustLookup("Node")
	for i := 0; i < 4; i++ {
		if _, err := CollectConcurrent(h, NoRoots{}, nil, 1); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		verifyGraph(t, h, m)
		for j := 0; j < 100; j++ {
			if _, err := h.Alloc(node, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCollectConcurrentMatchesSTWByteIdentical is the differential
// acceptance test: on the same quiescent workload the concurrent
// collector must compact the heap to byte-identical content — the
// tracer is shared and the summary is a pure function of the bitmap, so
// the data area, the region-top table, and the root entries all match
// the STW collector's output exactly.
func TestCollectConcurrentMatchesSTWByteIdentical(t *testing.T) {
	build := func() *pheap.Heap {
		h, reg := newHeap(t, 4<<20)
		buildGarbageBelt(t, h, reg, 250) // past the dead-wood budget: real moves
		buildGraph(t, h, reg, 77, 600, 6)
		return h
	}
	hSTW := build()
	hCon := build()

	rSTW, err := Collect(hSTW, NoRoots{})
	if err != nil {
		t.Fatal(err)
	}
	rCon, err := CollectConcurrent(hCon, NoRoots{}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rSTW.LiveObjects != rCon.LiveObjects || rSTW.LiveBytes != rCon.LiveBytes ||
		rSTW.MovedObjects != rCon.MovedObjects || rSTW.NewTop != rCon.NewTop {
		t.Fatalf("results differ: stw %+v vs concurrent %+v", rSTW, rCon)
	}
	geo := hSTW.Geo()
	sections := []struct {
		name   string
		off, n int
	}{
		{"data area", geo.DataOff, geo.DataSize},
		{"region-top table", geo.RegionTopOff, geo.RegionTopSize},
		{"name table", geo.NameTabOff, geo.NameTabCap * 64},
		{"mark bitmap", geo.MarkBmpOff, geo.MarkBmpSize},
	}
	for _, s := range sections {
		a := hSTW.Device().View(s.off, s.n)
		b := hCon.Device().View(s.off, s.n)
		if !bytes.Equal(a, b) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s differs at byte %d (abs %d): %#x vs %#x", s.name, i, s.off+i, a[i], b[i])
				}
			}
		}
	}
}

// TestCollectConcurrentCrashAtEveryFlush crashes a concurrent collection
// at the k-th device flush for every k — covering the phase-word
// persist, the bitmap persists, the gcActive transition, compaction, and
// the redo finish — reloads the crash image, recovers, and verifies the
// graph bit-for-bit. Before gcActive is set the recovery path is the
// fresh-cycle fallback (the phase word alone is cleared); after it, the
// standard resumable compaction.
func TestCollectConcurrentCrashAtEveryFlush(t *testing.T) {
	const seed = 99
	h0, reg0 := newHeap(t, 2<<20)
	buildGarbageBelt(t, h0, reg0, 120) // past the dead-wood budget: real moves
	m := buildGraph(t, h0, reg0, seed, 120, 4)
	base := h0.Device().Stats().Flushes
	if res, err := CollectConcurrent(h0, NoRoots{}, nil, 1); err != nil {
		t.Fatal(err)
	} else if res.MovedObjects == 0 {
		t.Fatal("workload compacted nothing; the sweep misses the move protocol")
	}
	totalFlushes := h0.Device().Stats().Flushes - base
	if totalFlushes < 20 {
		t.Fatalf("suspiciously few flushes in a concurrent GC: %d", totalFlushes)
	}

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
			_, err := CollectConcurrent(h, NoRoots{}, nil, 1)
			return err
		})
		if err != nil {
			t.Fatalf("k=%d: collect: %v", k, err)
		}

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
		if h2.GCPhase() != pheap.GCPhaseIdle {
			t.Fatalf("k=%d: phase word %d after recovery", k, h2.GCPhase())
		}
		verifyGraph(t, h2, m)
		if !crashed {
			break // k beyond the GC's flush count: clean finish
		}
	}
}

// TestRecoverClearsAbortedConcurrentMark: a heap whose image announces a
// mid-concurrent-mark crash (phase word set, gcActive clear) recovers by
// clearing the phase word alone — nothing moved, the graph is untouched,
// and the next collection starts fresh.
func TestRecoverClearsAbortedConcurrentMark(t *testing.T) {
	h, reg := newHeap(t, 2<<20)
	m := buildGraph(t, h, reg, 55, 150, 3)
	h.SetGCPhase(pheap.GCPhaseConcurrentMark)
	h.Device().FlushAll()
	img := h.Device().CrashImage(nvm.CrashFlushedOnly, 0)

	h2, err := pheap.Load(nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), klass.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if h2.GCPhase() != pheap.GCPhaseConcurrentMark {
		t.Fatalf("loaded phase = %d, want mid-mark", h2.GCPhase())
	}
	res, ran, err := RecoverIfNeeded(h2)
	if err != nil {
		t.Fatal(err)
	}
	if !ran || res.Recovered {
		t.Fatalf("ran %v, recovered %v: an aborted mark runs recovery, which reports no compaction", ran, res.Recovered)
	}
	if h2.GCPhase() != pheap.GCPhaseIdle {
		t.Fatalf("phase = %d after recovery, want idle", h2.GCPhase())
	}
	verifyGraph(t, h2, m)
	// The fresh cycle the fallback promises: a full collection works.
	if _, err := Collect(h2, NoRoots{}); err != nil {
		t.Fatal(err)
	}
	verifyGraph(t, h2, m)
}

// TestCollectConcurrentAllocateBlackDuringMark exercises the
// allocate-black path at the pgc level: allocation between the snapshot
// and the final pause (simulated with a StoppedWorld handshake that
// allocates inside the marking window via the World hooks) survives the
// collection even though it was never traced.
func TestCollectConcurrentAllocateBlackDuringMark(t *testing.T) {
	h, reg := newHeap(t, 4<<20)
	m := buildGraph(t, h, reg, 21, 200, 3)
	node := reg.MustLookup("Node")

	w := &allocatingWorld{}
	w.onSecondStop = func() {
		// Runs right before the final pause is requested — i.e. after
		// concurrent marking, inside the marking window.
		a := h.NewAllocator()
		defer a.Release()
		var last layout.Ref
		for i := 0; i < 50; i++ {
			ref, err := a.Alloc(node, 0)
			if err != nil {
				t.Fatal(err)
			}
			h.SetWordAtomic(ref, layout.FieldOff(fID), uint64(100000+i))
			if last != 0 {
				h.SetWordAtomic(ref, layout.FieldOff(fNext), uint64(last))
			}
			last = ref
		}
		if err := h.SetRoot("fresh", last); err != nil {
			t.Fatal(err)
		}
		h.Device().Flush(h.Geo().DataOff, h.Top()-h.Geo().DataOff)
		h.Device().Fence()
	}
	res, err := CollectConcurrent(h, NoRoots{}, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(m.reachable()) + 50
	if res.LiveObjects != want {
		t.Fatalf("live = %d, want %d (allocate-black kept the fresh chain)", res.LiveObjects, want)
	}
	verifyGraph(t, h, m)
	// The fresh chain is intact and correctly linked after compaction.
	ref, ok := h.GetRoot("fresh")
	if !ok {
		t.Fatal("fresh root lost")
	}
	for i := 49; i >= 0; i-- {
		if got := h.GetWord(ref, layout.FieldOff(fID)); got != uint64(100000+i) {
			t.Fatalf("fresh node %d: id %d", i, got)
		}
		ref = layout.Ref(h.GetWord(ref, layout.FieldOff(fNext)))
		if i > 0 && ref == layout.NullRef {
			t.Fatalf("fresh chain broken at %d", i)
		}
	}
}

// allocatingWorld is a World whose second StopWorld (the final pause
// request) first runs a callback — a deterministic stand-in for mutators
// that allocated during the concurrent marking window.
type allocatingWorld struct {
	stops        int
	onSecondStop func()
}

func (w *allocatingWorld) StopWorld() {
	w.stops++
	if w.stops == 2 && w.onSecondStop != nil {
		w.onSecondStop()
	}
}

func (w *allocatingWorld) StartWorld() {}
