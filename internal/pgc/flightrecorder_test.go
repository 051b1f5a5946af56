package pgc

import (
	"fmt"
	"testing"

	"espresso/internal/klass"
	"espresso/internal/layout"
	"espresso/internal/nvm"
	"espresso/internal/nvm/faultdev"
	"espresso/internal/pheap"
	"espresso/internal/telemetry/blackbox"
)

// recorderHeap creates a tracked heap with its flight recorder on and a
// DRAM mirror of every record appended. The set-up's flushes (heap and
// ring format) precede any crash hook the caller installs.
func recorderHeap(t *testing.T, mirror *[]blackbox.Record) (*pheap.Heap, *klass.Registry) {
	t.Helper()
	h, reg := newHeap(t, 1<<20)
	r, err := h.EnableFlightRecorder()
	if err != nil {
		t.Fatal(err)
	}
	r.SetMirror(func(rec blackbox.Record) { *mirror = append(*mirror, rec) })
	return h, reg
}

// recorderWorkload is an allocation burst (PLAB handoffs), a
// stop-the-world collection, a second burst and a one-worker concurrent
// collection, so that its flushes cross allocation, marking, compaction
// and redo-commit boundaries.
func recorderWorkload(h *pheap.Heap, reg *klass.Registry) error {
	node, err := reg.Define(klass.MustInstance("recorder/Node", nil,
		klass.Field{Name: "id", Type: layout.FTLong},
		klass.Field{Name: "next", Type: layout.FTRef}))
	if err != nil {
		return err
	}
	burst := func(root string) error {
		var prev layout.Ref
		for i := 0; i < 96; i++ {
			ref, err := h.Alloc(node, 0)
			if err != nil {
				return err
			}
			h.SetWord(ref, layout.FieldOff(0), uint64(i))
			if i%2 == 0 { // odd allocations stay garbage for the collections
				h.SetWord(ref, layout.FieldOff(1), uint64(prev))
				prev = ref
			}
		}
		return h.SetRoot(root, prev)
	}
	if err := burst("chain-a"); err != nil {
		return err
	}
	if _, err := Collect(h, NoRoots{}); err != nil {
		return err
	}
	if err := burst("chain-b"); err != nil {
		return err
	}
	_, err = CollectConcurrent(h, NoRoots{}, StoppedWorld{}, 1)
	return err
}

// checkJournal decodes dev's journal and holds it to the run's mirror:
// every record equals the mirror's at its sequence number, and the
// sequence has no gap.
func checkJournal(t *testing.T, dev *nvm.Device, geo pheap.Geometry, mirror []blackbox.Record, what string) blackbox.Timeline {
	t.Helper()
	tl, err := blackbox.Decode(dev, geo.BlackboxOff, geo.BlackboxSize)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i, e := range tl.Events {
		if e.Seq == 0 || e.Seq > uint64(len(mirror)) {
			t.Fatalf("%s: decoded seq %d beyond the %d-event mirror (a fabricated record)", what, e.Seq, len(mirror))
		}
		if m := mirror[e.Seq-1]; e.Kind != m.Kind || e.P0 != m.P0 || e.P1 != m.P1 || e.P2 != m.P2 {
			t.Fatalf("%s: decoded seq %d = %+v, the mirror has %+v", what, e.Seq, e, m)
		}
		if i > 0 && e.Seq != tl.Events[i-1].Seq+1 {
			t.Fatalf("%s: sequence gap %d -> %d survived decoding", what, tl.Events[i-1].Seq, e.Seq)
		}
	}
	return tl
}

// TestCrashSweepFlightRecorder is the flight recorder's crash contract on
// a whole heap: recorderWorkload is crashed at every flush boundary, and
// the journal decoded from each crash image must be a checksum-valid,
// gap-free prefix of that run's mirror — a torn tail truncated, nothing
// fabricated, reordered or resurrected. Every 16th boundary also checks
// three random-eviction images of the crash, and every 8th reloads the
// image, recovers it and appends to its journal.
func TestCrashSweepFlightRecorder(t *testing.T) {
	var mirror []blackbox.Record
	h, reg := recorderHeap(t, &mirror)
	f0 := h.Device().Stats().Flushes
	if err := recorderWorkload(h, reg); err != nil {
		t.Fatal(err)
	}
	total, geo := h.Device().Stats().Flushes-f0, h.Geo()
	if tl := checkJournal(t, h.Device(), geo, mirror, "clean run"); len(tl.Events) != len(mirror) {
		t.Fatalf("clean run decoded %d of %d journaled events", len(tl.Events), len(mirror))
	}

	// crash replays the run with a crash at flush k and checks the journal
	// of its image under policy. The image is taken from the crashing
	// device itself, so each eviction seed replays the run.
	crash := func(k uint64, policy nvm.CrashPolicy, seed int64) ([]byte, []blackbox.Record) {
		var mirror []blackbox.Record
		h, reg := recorderHeap(t, &mirror)
		faultdev.CrashIn(h.Device(), k)
		if _, err := faultdev.Run(h.Device(), func() error { return recorderWorkload(h, reg) }); err != nil {
			t.Fatalf("the run failed before crash point %d: %v", k, err)
		}
		img := h.Device().CrashImage(policy, seed)
		what := fmt.Sprintf("crash at flush %d/%d (policy %d, seed %d)", k, total, policy, seed)
		checkJournal(t, nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked}), geo, mirror, what)
		return img, mirror
	}
	for k := uint64(1); k <= total; k++ {
		img, mirror := crash(k, nvm.CrashFlushedOnly, 0)
		if k%16 == 0 || k == total {
			for seed := int64(1); seed <= 3; seed++ {
				crash(k, nvm.CrashRandomEviction, seed)
			}
		}
		if k%8 != 0 && k != total {
			continue
		}
		// The image loads, recovers, and its journal takes an append that
		// decodes right after the survivors.
		dev := nvm.FromImage(img, nvm.Config{Mode: nvm.Tracked})
		h, err := pheap.Load(dev, klass.NewRegistry())
		if err != nil {
			t.Fatalf("crash at flush %d: reload: %v", k, err)
		}
		if _, _, err := RecoverIfNeeded(h); err != nil {
			t.Fatalf("crash at flush %d: recovery: %v", k, err)
		}
		r, err := h.EnableFlightRecorder()
		if err != nil {
			t.Fatalf("crash at flush %d: recorder: %v", k, err)
		}
		before := r.Seq()
		mirror = mirror[:before:before]
		r.SetMirror(func(rec blackbox.Record) { mirror = append(mirror, rec) })
		r.Append(blackbox.EvHeapLoad, h.GlobalTS(), 0, 0)
		tl := checkJournal(t, dev, geo, mirror, fmt.Sprintf("reload after a crash at flush %d", k))
		if n := len(tl.Events); n == 0 || tl.Events[n-1].Seq != before+1 {
			t.Fatalf("crash at flush %d: the append after reload (seq %d) is not the journal's tail", k, before+1)
		}
	}
}
